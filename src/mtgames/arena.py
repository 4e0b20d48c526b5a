"""Two-player graph arenas used as the solving substrate for deviation analysis.

An arena is a total directed graph whose nodes are owned by Seeker (the
deviating player being analyzed) or Spoiler (everything resolving against
her). Each node carries a vector of priorities, one coordinate per tracked
parity condition; Seeker edges may be labeled with the action that induced
them so winning strategies can be read back as game strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

SEEKER = 0
SPOILER = 1


@dataclass
class Arena:
    """Explicit two-player arena with vector priorities.

    ``succ[v]`` is the nonempty list of successor node indices of ``v`` and
    ``labels[v]`` the parallel list of edge labels (None where unlabeled).
    ``priorities[v]`` is a k-vector of naturals; smaller is stronger and a
    coordinate is satisfied on a play iff the minimum value seen infinitely
    often is even.
    """

    nodes: list
    owner: list[int]
    succ: list[list[int]]
    labels: list[list[object]]
    priorities: list[tuple[int, ...]]
    initial: int
    k: int = field(default=1)

    def check(self) -> None:
        n = len(self.nodes)
        assert len(self.owner) == len(self.succ) == len(self.labels) == len(self.priorities) == n
        assert 0 <= self.initial < n
        for v in range(n):
            if not self.succ[v]:
                raise ValueError(f"arena node {v} has no successors; arenas must be total")
            if len(self.priorities[v]) != self.k:
                raise ValueError(f"priority vector of node {v} has wrong length")
            if len(self.labels[v]) != len(self.succ[v]):
                raise ValueError(f"labels of node {v} do not match its successor list")

    def dump(self) -> str:
        """Debug listing: one line per node with ownership, priorities and edges."""
        owner_names = {SEEKER: "SEEKER", SPOILER: "SPOILER"}
        lines = [f"arena k={self.k} nodes={len(self.nodes)} initial={self.initial}"]
        for v in range(len(self.nodes)):
            edges = ", ".join(
                f"{w}" + (f" via {lab!r}" if lab is not None else "")
                for w, lab in zip(self.succ[v], self.labels[v]))
            lines.append(
                f"{v} {owner_names[self.owner[v]]} prio={self.priorities[v]} "
                f":: {self.nodes[v]} -> [{edges}]")
        return "\n".join(lines)


@dataclass
class ArenaLasso:
    """An ultimately periodic path through an arena, with the labels it took."""

    prefix: list[int]
    cycle: list[int]
    prefix_labels: list
    cycle_labels: list
