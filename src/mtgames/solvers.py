"""Graph-game solving backends.

Two solvers over :class:`~mtgames.arena.Arena`:

* ``solve_one_player``: non-emptiness of a single parity condition when every
  node belongs to Seeker, by even-value/SCC search, with a witness lasso.
* ``solve_conjunction``: Seeker must satisfy every active coordinate at once,
  on a leveled arena, where no Spoiler node that branches lies on a cycle (in
  a knowledge arena such a branch strictly shrinks the consistent set). Every
  play ends in a part Seeker controls alone, so she wins exactly on her
  attractor of the nodes that lie on a closed walk whose minimum is even in
  every coordinate, found by the Emerson-Lei SCC test for generalized parity.

All solvers are deterministic: node order is arena order and every choice
breaks ties by smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass

from .arena import SEEKER, Arena, ArenaLasso
from .core import InputError


# ---------------------------------------------------------------------------
# graph helpers


def tarjan_scc(nodes: list[int], succ: dict[int, list[int]]) -> list[list[int]]:
    """Strongly connected components, iteratively, in deterministic order."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work[-1]
            pushed = False
            children = succ[v]
            while ptr < len(children):
                w = children[ptr]
                ptr += 1
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work[-1] = (v, ptr)
                    work.append((w, 0))
                    pushed = True
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            if pushed:
                continue
            work.pop()
            if work:
                u = work[-1][0]
                if low[v] < low[u]:
                    low[u] = low[v]
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.remove(w)
                    comp.append(w)
                    if w == v:
                        break
                comps.append(sorted(comp))
    return comps


def reachable_from(sources: list[int], succ: dict[int, list[int]]) -> set[int]:
    seen = set(sources)
    frontier = list(sources)
    while frontier:
        v = frontier.pop()
        for w in succ.get(v, ()):
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def bfs_path(source: int, goals: set[int], succ: dict[int, list[int]]) -> list[int] | None:
    """Shortest node path from ``source`` to any goal; includes both endpoints."""
    if source in goals:
        return [source]
    prev: dict[int, int] = {source: source}
    frontier = [source]
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    if w in goals:
                        path = [w]
                        while path[-1] != source:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    return None


def find_even_min_cycle(nodes: list[int], succ: dict[int, list[int]],
                        prio: dict[int, int], sources: list[int]
                        ) -> tuple[list[int], list[int]] | None:
    """A reachable cycle whose minimum priority is even, or None.

    For each even value ``e`` in ascending order, restricts to nodes with
    priority at least ``e`` and looks for a reachable strongly connected
    component containing a priority-``e`` node with a cycle through it.
    Reachability of the cycle is judged in the full graph; the returned value
    is ``(prefix, cycle)`` with the prefix ending just before ``cycle[0]``.
    """
    reach = reachable_from(sources, succ)
    evens = sorted({prio[v] for v in reach if prio[v] % 2 == 0})
    for e in evens:
        keep = {v for v in reach if prio[v] >= e}
        sub = {v: [w for w in succ[v] if w in keep] for v in keep}
        for comp in tarjan_scc(sorted(keep), sub):
            carriers = [v for v in comp if prio[v] == e]
            if not carriers:
                continue
            nontrivial = len(comp) > 1
            comp_set = set(comp)
            comp_succ = {u: [w for w in sub[u] if w in comp_set] for u in comp}
            for v in carriers:
                if not nontrivial and v not in comp_succ[v]:
                    continue
                # cycle through v inside the component: step to a successor, then back
                cycle = None
                for w in comp_succ[v]:
                    if w == v:
                        cycle = [v]
                        break
                    tail = bfs_path(w, {v}, comp_succ)
                    if tail is not None:
                        cycle = [v] + tail[:-1]
                        break
                if cycle is None:
                    continue
                prefix_path = bfs_path_multi(sources, v, succ)
                return prefix_path[:-1], cycle
    return None


def bfs_path_multi(sources: list[int], goal: int, succ: dict[int, list[int]]) -> list[int]:
    """Shortest path from the nearest source to ``goal``."""
    for s in sources:
        if s == goal:
            return [s]
    prev: dict[int, int] = {s: s for s in sources}
    frontier = list(sources)
    while frontier:
        nxt = []
        for v in frontier:
            for w in succ.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    if w == goal:
                        path = [w]
                        while prev[path[-1]] != path[-1]:
                            path.append(prev[path[-1]])
                        return path[::-1]
                    nxt.append(w)
        frontier = nxt
    raise AssertionError("goal not reachable from sources")


# ---------------------------------------------------------------------------
# one-player parity


def solve_one_player(arena: Arena, coordinate: int = 0) -> tuple[bool, ArenaLasso | None]:
    """Non-emptiness of one parity coordinate when Seeker owns every node."""
    arena.check()
    if any(o != SEEKER for o in arena.owner):
        raise InputError("solve_one_player expects every node to be Seeker-owned")
    if not 0 <= coordinate < arena.k:
        raise InputError(f"coordinate {coordinate} out of range for k={arena.k}")
    succ = {v: list(arena.succ[v]) for v in range(len(arena.nodes))}
    prio = {v: arena.priorities[v][coordinate] for v in range(len(arena.nodes))}
    found = find_even_min_cycle(sorted(succ), succ, prio, [arena.initial])
    if found is None:
        return False, None
    prefix, cycle = found
    walk = prefix + cycle + [cycle[0]]
    all_labels = []
    for u, w in zip(walk, walk[1:]):
        all_labels.append(arena.labels[u][arena.succ[u].index(w)])
    return True, ArenaLasso(prefix=prefix, cycle=cycle,
                            prefix_labels=all_labels[:len(prefix)],
                            cycle_labels=all_labels[len(prefix):])


# ---------------------------------------------------------------------------
# conjunction of parity coordinates


@dataclass
class WitnessMachine:
    """Finite-memory Seeker strategy whose memory is a plan position ``r`` below k.

    On visiting arena node ``v`` with record ``r``, a Seeker node takes edge
    ``choice[(r, v)]``; then :meth:`step` updates the record. ``moves`` lists
    where the plan advances: where ``v`` carries its good component's minimum
    of coordinate ``r``.
    """

    init: int
    moves: dict[tuple[int, int], int]
    choice: dict[tuple[int, int], int]

    def step(self, record: int, node: int) -> int:
        return self.moves.get((record, node), record)


@dataclass
class ConjunctionResult:
    winner: bool
    witness: WitnessMachine | None


def effective_priorities(arena: Arena, active: list[tuple[bool, ...]]) -> list[tuple[int, ...]]:
    """Priority vectors with inactive coordinates rewritten to 0 (satisfied)."""
    return [tuple(p if on else 0 for p, on in zip(arena.priorities[v], active[v]))
            for v in range(len(arena.nodes))]


def _check_mask(arena: Arena, active: list[tuple[bool, ...]]) -> None:
    if len(active) != len(arena.nodes):
        raise InputError("active mask must cover every node")
    for v in range(len(arena.nodes)):
        if len(active[v]) != arena.k:
            raise InputError(f"active mask of node {v} has wrong length")
        for w in arena.succ[v]:
            for i in range(arena.k):
                if not active[v][i] and active[w][i]:
                    raise InputError(
                        f"active mask not monotone on edge {v}->{w} coordinate {i}")


def _attract(targets: list[int], pred: dict[int, list[int]],
             need: dict[int, int]) -> dict[int, int | None]:
    """Nodes forced into ``targets``, each mapped to a successor attracted earlier.

    ``need[u]`` counts the successors of ``u`` that must be attracted before
    ``u`` is; only the edges listed in ``pred`` count. Targets map to None.
    """
    towards: dict[int, int | None] = dict.fromkeys(targets)
    queue = list(targets)
    for w in queue:
        for u in pred[w]:
            if u not in towards:
                need[u] -= 1
                if not need[u]:
                    towards[u] = w
                    queue.append(u)
    return towards


def solve_conjunction(arena: Arena, active: list[tuple[bool, ...]] | None = None
                      ) -> ConjunctionResult:
    """Decide whether Seeker can satisfy every active coordinate from the initial node.

    Inactive coordinates count as satisfied; the mask must be monotone
    non-increasing along edges. A Spoiler node with two or more successors
    must lie on no cycle (else :class:`InputError`), so every play ends in a
    part Seeker controls alone. ``Good`` holds the nodes on a closed walk whose
    minimum is even in every coordinate: in a cyclic SCC whose minimum is odd
    in some coordinate, no such walk meets the nodes carrying it, so they are
    deleted and the rest re-split. Seeker wins exactly on her attractor of
    ``Good``. Her witness follows the attractor, then, inside its component,
    walks to a node carrying the minimum of coordinate ``r``, which advances ``r``.
    """
    arena.check()
    if active is None:
        active = [tuple(True for _ in range(arena.k)) for _ in arena.nodes]
    _check_mask(arena, active)
    eff = effective_priorities(arena, active)
    n, k, succ = len(arena.nodes), arena.k, arena.succ
    pred: dict[int, list[int]] = {v: [] for v in range(n)}
    for v in range(n):
        for w in succ[v]:
            pred[w].append(v)

    good: list[tuple[list[int], tuple[int, ...]]] = []  # component, its minimum
    work = [list(range(n))]
    while work:
        part = work.pop()
        inside = set(part)
        sub = {v: [w for w in succ[v] if w in inside] for v in part}
        for comp in tarjan_scc(part, sub):
            if len(comp) == 1 and comp[0] not in sub[comp[0]]:
                continue
            branching = [v for v in comp if arena.owner[v] != SEEKER and len(succ[v]) > 1]
            if branching:
                raise InputError(f"solve_conjunction: Spoiler node {branching[0]} branches on a cycle")
            low = tuple(min(eff[v][i] for v in comp) for i in range(k))
            odd = [i for i in range(k) if low[i] % 2]
            if odd:
                work.append([v for v in comp if eff[v][odd[0]] != low[odd[0]]])
            else:
                good.append((comp, low))

    need = {v: 1 if arena.owner[v] == SEEKER else len(succ[v]) for v in range(n)}
    win = _attract([v for comp, _ in good for v in comp], pred, need)
    if arena.initial not in win:
        return ConjunctionResult(False, None)
    # outside Good the record stays at 0; inside, the play never leaves its component
    choice = {(0, v): succ[v].index(w) for v, w in win.items()
              if w is not None and arena.owner[v] == SEEKER}
    moves: dict[tuple[int, int], int] = {}
    for comp, low in good:
        inside = set(comp)
        comp_pred = {w: [u for u in pred[w] if u in inside] for w in comp}
        for r in range(k):
            carriers = [v for v in comp if eff[v][r] == low[r]]
            walk = _attract(carriers, comp_pred, dict.fromkeys(comp, 1))
            for v in carriers:
                moves[(r, v)] = (r + 1) % k
                walk[v] = next(w for w in succ[v] if w in inside)
            for v in comp:
                if arena.owner[v] == SEEKER:
                    choice[(r, v)] = succ[v].index(walk[v])
    return ConjunctionResult(True, WitnessMachine(init=0, moves=moves, choice=choice))
