"""Two-player graph arenas used as the solving substrate for deviation analysis.

An arena is a total directed graph whose nodes are owned by Seeker (the
deviating player being analyzed) or Spoiler (everything resolving against
her). Each node carries a vector of priorities, one coordinate per tracked
parity condition; Seeker edges may be labeled with the action that induced
them so winning strategies can be read back as game strategies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import InputError

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
        """Raise InputError unless the arena is well formed and total."""
        n = len(self.nodes)
        if not len(self.owner) == len(self.succ) == len(self.labels) == len(self.priorities) == n:
            raise InputError("arena owner, successor, label and priority lists must "
                             f"each have one entry per node ({n})")
        if not 0 <= self.initial < n:
            raise InputError(f"arena initial node {self.initial} out of range")
        for v, (o, ws, labs, prio) in enumerate(zip(self.owner, self.succ, self.labels,
                                                     self.priorities)):
            if o != SEEKER and o != SPOILER:
                raise InputError(f"arena node {v} has owner {o!r}, neither SEEKER nor SPOILER")
            if not ws:
                raise InputError(f"arena node {v} has no successors; arenas must be total")
            if min(ws) < 0 or max(ws) >= n:
                raise InputError(f"arena node {v} has a successor out of range")
            if len(prio) != self.k:
                raise InputError(f"priority vector of node {v} has wrong length")
            if len(labs) != len(ws):
                raise InputError(f"labels of node {v} do not match its successor list")

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
