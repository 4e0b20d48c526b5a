"""Graph-game solving backend.

``solve_conjunction`` decides whether Seeker can satisfy every priority
coordinate at once on a leveled arena, where no Spoiler node that branches lies
on a cycle (in a knowledge arena such a branch strictly shrinks the consistent
set). Every play ends in a part Seeker controls alone, so she wins exactly on
her attractor of the nodes that lie on a closed walk whose minimum is even in
every coordinate, found by the Emerson-Lei SCC test for generalized parity.
``solve_one_player`` is its one-coordinate case on an arena Seeker owns alone,
with the winning lasso read off the positional witness.

The solver is deterministic: node order is arena order and every choice
breaks ties by smallest index.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .arena import SEEKER, SPOILER, Arena, ArenaLasso
from .core import InputError

_odd = (2).__rmod__  # _odd(x) == x % 2


# ---------------------------------------------------------------------------
# graph helpers


def tarjan_scc(nodes, succ) -> list[list[int]]:
    """Strongly connected components on ``nodes``, iteratively, in deterministic order.

    ``nodes`` are non-negative ints and ``succ[v]`` lists the successors of
    ``v``; ``succ`` may be a list or a dict. Successors outside ``nodes`` are
    ignored.
    """
    nodes = list(nodes)
    done = max(len(succ), max(nodes, default=-1) + 1)  # above every DFS number
    index = [done] * done  # a node outside ``nodes`` counts as finished
    for v in nodes:
        index[v] = -1
    low = [0] * done
    stack: list[int] = []
    comps: list[list[int]] = []
    counter = 0
    for root in nodes:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, children = work[-1]
            for w in children:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                lv = low[v]
                if work and lv < low[work[-1][0]]:
                    low[work[-1][0]] = lv
                if lv == index[v]:
                    comp, w = [], None
                    while w != v:
                        w = stack.pop()
                        index[w] = done
                        comp.append(w)
                    comp.sort()
                    comps.append(comp)
    return comps


# ---------------------------------------------------------------------------
# conjunction of parity coordinates


@dataclass
class WitnessMachine:
    """Finite-memory Seeker strategy whose memory, a plan position ``r`` below k, starts at 0.

    On visiting arena node ``v`` with record ``r``, a Seeker node takes edge
    ``choice[(r, v)]``; then the record becomes ``moves[(r, v)]`` where that is
    listed, and stays ``r`` elsewhere. ``moves`` lists where the plan advances:
    where ``v`` carries its good component's minimum of coordinate ``r``.
    """

    moves: dict[tuple[int, int], int]
    choice: dict[tuple[int, int], int]


@dataclass
class ConjunctionResult:
    winner: bool
    witness: WitnessMachine | None


def effective_priorities(arena: Arena, active: list[tuple[bool, ...]]) -> list[tuple[int, ...]]:
    """Priority vectors with inactive coordinates rewritten to 0 (satisfied)."""
    return [tuple(p if on else 0 for p, on in zip(arena.priorities[v], active[v]))
            for v in range(len(arena.nodes))]


def _attract(targets: list[int], pred, need) -> dict[int, int | None]:
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


def solve_conjunction(arena: Arena) -> ConjunctionResult:
    """Decide whether Seeker can satisfy every coordinate from the initial node.

    ``arena`` is checked first (:class:`InputError` if malformed). A coordinate
    a play must not be judged on carries 0 (satisfied), as a knowledge arena's
    does once its topology has dropped out. A Spoiler node with two or more
    successors must lie on no cycle (else :class:`InputError`), so every play
    ends in a part Seeker controls alone. ``Good`` holds the nodes on a closed
    walk whose minimum is even in every coordinate: in a cyclic SCC whose
    minimum is odd in some coordinate, no such walk meets the nodes carrying
    it, so they are deleted and the rest re-split. Seeker wins exactly on her
    attractor of ``Good``. Her witness follows the attractor, then, inside its
    component, walks to a node carrying the minimum of coordinate ``r``, which
    advances ``r``.
    """
    arena.check()
    return _solve_conjunction(arena)


def _solve_conjunction(arena: Arena) -> ConjunctionResult:
    """:func:`solve_conjunction` on an arena the library built, so not re-checked."""
    n, k, succ, owner, prio = len(arena.nodes), arena.k, arena.succ, arena.owner, arena.priorities
    if [column for column in zip(*prio) if all(map(_odd, column))]:
        return ConjunctionResult(False, None)  # no play meets an even value of this coordinate
    splitters = ({v for v in range(n) if owner[v] == SPOILER and len(succ[v]) > 1}
                 if SPOILER in owner else set())
    comp_of: dict[int, int] = {}  # node of Good -> number of its component in ``lows``
    lows: list[tuple[int, ...]] = []  # each good component's minimum
    work: list = [range(n)]
    while work:
        for comp in tarjan_scc(work.pop(), succ):
            if len(comp) == 1 and comp[0] not in succ[comp[0]]:
                continue
            if not splitters.isdisjoint(comp):
                raise InputError(f"solve_conjunction: Spoiler node "
                                 f"{min(splitters.intersection(comp))} branches on a cycle")
            low = tuple(map(min, zip(*[prio[v] for v in comp])))
            for i, x in enumerate(low):
                if x % 2:  # no good closed walk meets the nodes carrying x: split the rest
                    work.append([v for v in comp if prio[v][i] != x])
                    break
            else:
                comp_of.update(dict.fromkeys(comp, len(lows)))
                lows.append(low)
    if arena.initial in comp_of:
        choice: dict[tuple[int, int], int] = {}
    else:
        if not comp_of:
            return ConjunctionResult(False, None)
        pred: list[list[int]] = [[] for _ in range(n)]
        for v in range(n):
            for w in succ[v]:
                pred[w].append(v)
        need = [1 if owner[v] == SEEKER else len(succ[v]) for v in range(n)]
        win = _attract(list(comp_of), pred, need)
        if arena.initial not in win:
            return ConjunctionResult(False, None)
        choice = {(0, v): succ[v].index(w) for v, w in win.items()
                  if w is not None and owner[v] == SEEKER}
    # outside Good the record stays at 0; inside, the play never leaves its component
    inner: dict[int, list[int]] = {v: [] for v in comp_of}  # predecessors in the component
    stay: dict[int, int] = {}  # an edge that stays in the component
    for v, c in comp_of.items():
        for e, w in enumerate(succ[v]):
            if comp_of.get(w) == c:
                inner[w].append(v)
                stay[v] = e
    moves: dict[tuple[int, int], int] = {}
    for r in range(k):
        carriers = [v for v, c in comp_of.items() if prio[v][r] == lows[c][r]]
        for v in carriers:
            moves[(r, v)] = (r + 1) % k
        for v, w in _attract(carriers, inner, dict.fromkeys(comp_of, 1)).items():
            if owner[v] == SEEKER:
                choice[(r, v)] = stay[v] if w is None else succ[v].index(w)
    return ConjunctionResult(True, WitnessMachine(moves=moves, choice=choice))


def solve_one_player(arena: Arena, coordinate: int = 0) -> tuple[bool, ArenaLasso | None]:
    """Non-emptiness of one parity coordinate when Seeker owns every node.

    :func:`solve_conjunction` on that coordinate alone; the winning lasso
    follows its positional witness from the initial node until a node repeats.
    """
    arena.check()
    if SPOILER in arena.owner:
        raise InputError("solve_one_player expects every node to be Seeker-owned")
    if not 0 <= coordinate < arena.k:
        raise InputError(f"coordinate {coordinate} out of range for k={arena.k}")
    single = replace(arena, priorities=[(p[coordinate],) for p in arena.priorities], k=1)
    res = _solve_conjunction(single)
    if not res.winner:
        return False, None
    walk, labels, seen = [], [], {}
    v = arena.initial
    while v not in seen:
        seen[v] = len(walk)
        edge = res.witness.choice[(0, v)]
        walk.append(v)
        labels.append(arena.labels[v][edge])
        v = arena.succ[v][edge]
    i = seen[v]
    return True, ArenaLasso(prefix=walk[:i], cycle=walk[i:],
                            prefix_labels=labels[:i], cycle_labels=labels[i:])
