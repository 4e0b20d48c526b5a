"""Graph-game solving backends.

Two solvers over :class:`~mtgames.arena.Arena`:

* ``solve_one_player``: non-emptiness of a single parity condition when every
  node belongs to Seeker, by even-value/SCC search, with a witness lasso.
* ``solve_conjunction``: Seeker must satisfy every active coordinate at once.
  The conjunction is rewritten as one request/response condition (for each odd
  value ``c`` of a coordinate: seeing ``c`` infinitely often requires seeing
  something smaller infinitely often), tracked with an index-appearance-record
  memory so a single parity condition remains, and solved by the classic
  recursive region decomposition (recursing on the minimum priority). Seeker
  witnesses carry the record as finite memory and are verified against every
  Spoiler response via cycle analysis of the strategy-restricted product.

All solvers are deterministic: node order is arena order and every choice
breaks ties by smallest index.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .arena import SEEKER, Arena, ArenaLasso
from .core import InputError

_MIN_RECURSION = 200_000


def _ensure_recursion_room() -> None:
    if sys.getrecursionlimit() < _MIN_RECURSION:
        sys.setrecursionlimit(_MIN_RECURSION)


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
# two-player parity


def _attractor(player: int, targets: set[int], sub: set[int],
               owner: list[int], succ: list[list[int]],
               pred: dict[int, list[int]]) -> tuple[set[int], dict[int, int]]:
    """Attractor of ``targets`` for ``player`` inside ``sub``, plus pull strategy."""
    attr = set(targets)
    strategy: dict[int, int] = {}
    out_count = {v: sum(1 for w in succ[v] if w in sub) for v in sub}
    frontier = list(sorted(targets))
    while frontier:
        v = frontier.pop(0)
        for u in pred.get(v, ()):
            if u not in sub or u in attr:
                continue
            if owner[u] == player:
                attr.add(u)
                strategy[u] = v
                frontier.append(u)
            else:
                out_count[u] -= 1
                if out_count[u] == 0:
                    attr.add(u)
                    frontier.append(u)
    return attr, strategy


def _zielonka(sub: set[int], owner: list[int], succ: list[list[int]],
              prio: dict[int, int], pred: dict[int, list[int]]
              ) -> tuple[set[int], set[int], dict[int, int], dict[int, int]]:
    """Winning regions and memoryless strategies for min-even parity.

    Strategies map owned nodes of the winner's region to a chosen successor
    node inside the region.
    """
    if not sub:
        return set(), set(), {}, {}
    p = min(prio[v] for v in sub)
    side = p % 2
    carriers = {v for v in sub if prio[v] == p}
    attr, pull = _attractor(side, carriers, sub, owner, succ, pred)
    w0, w1, s0, s1 = _zielonka(sub - attr, owner, succ, prio, pred)
    regions = (w0, w1)
    strats = (s0, s1)
    opp = 1 - side
    if not regions[opp]:
        strat_side = dict(strats[side])
        strat_side.update(pull)
        for v in sorted(carriers):
            if owner[v] == side and v not in strat_side:
                strat_side[v] = next(w for w in succ[v] if w in sub)
        if side == 0:
            return set(sub), set(), strat_side, {}
        return set(), set(sub), {}, strat_side
    block, pull_opp = _attractor(opp, regions[opp], sub, owner, succ, pred)
    w0b, w1b, s0b, s1b = _zielonka(sub - block, owner, succ, prio, pred)
    regions_b = (w0b, w1b)
    strats_b = (s0b, s1b)
    win_opp = regions_b[opp] | block
    strat_opp = dict(strats[opp])
    strat_opp.update(pull_opp)
    strat_opp.update(strats_b[opp])
    strat_side_b = dict(strats_b[side])
    if side == 0:
        return regions_b[0], win_opp, strat_side_b, strat_opp
    return win_opp, regions_b[1], strat_opp, strat_side_b


def _predecessors(succ: list[list[int]]) -> dict[int, list[int]]:
    pred: dict[int, list[int]] = {v: [] for v in range(len(succ))}
    for v, ws in enumerate(succ):
        for w in ws:
            pred[w].append(v)
    return pred


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
    """Finite-memory Seeker strategy: memory is an ordering of request indices.

    The machine is read as: on visiting arena node ``v`` with memory ``perm``,
    if ``v`` is a Seeker node take edge ``choice[(perm, v)]``; then update the
    memory with :meth:`step`. ``f_hits[v]`` lists the request/response pairs
    whose response set contains ``v``; those move to the front of the record.
    """

    init: tuple[int, ...]
    f_hits: list[frozenset[int]]
    choice: dict[tuple[tuple[int, ...], int], int]
    memory_used: int

    def step(self, perm: tuple[int, ...], node: int) -> tuple[int, ...]:
        hits = self.f_hits[node]
        if not hits:
            return perm
        front = tuple(j for j in perm if j in hits)
        rest = tuple(j for j in perm if j not in hits)
        return front + rest


@dataclass
class ConjunctionResult:
    winner: bool
    witness: WitnessMachine | None
    memory_used: int


def effective_priorities(arena: Arena, active: list[tuple[bool, ...]]) -> list[tuple[int, ...]]:
    """Priority vectors with inactive coordinates rewritten to 0 (satisfied)."""
    out = []
    for v in range(len(arena.nodes)):
        out.append(tuple(arena.priorities[v][i] if active[v][i] else 0
                         for i in range(arena.k)))
    return out


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


def _build_pairs(arena: Arena, eff: list[tuple[int, ...]]
                 ) -> tuple[int, list[frozenset[int]], list[frozenset[int]]]:
    """Request/response pairs: for every coordinate and odd value c present,
    requests are the nodes valued exactly c and responses the nodes valued
    below c in that coordinate."""
    pairs: list[tuple[int, int]] = []
    for i in range(arena.k):
        odd_values = sorted({eff[v][i] for v in range(len(arena.nodes))
                             if eff[v][i] % 2 == 1})
        pairs.extend((i, c) for c in odd_values)
    e_hits = []
    f_hits = []
    for v in range(len(arena.nodes)):
        e_hits.append(frozenset(j for j, (i, c) in enumerate(pairs) if eff[v][i] == c))
        f_hits.append(frozenset(j for j, (i, c) in enumerate(pairs) if eff[v][i] < c))
    return len(pairs), e_hits, f_hits


def _record_priority(perm: tuple[int, ...], e_hit: frozenset[int],
                     f_hit: frozenset[int], m: int) -> int:
    """Priority emitted on entering a node with record ``perm`` (min-even form).

    With 1-based positions in the record, ``f`` is the deepest position whose
    pair got a response here and ``e`` the deepest position with a request.
    A request deeper than every response is bad; everything else is good at
    the response depth. The max-even value ``2f`` (or odd ``2e-1``) is flipped
    to the min-even convention by subtracting from ``2m``.
    """
    pos = {j: idx + 1 for idx, j in enumerate(perm)}
    f = max((pos[j] for j in f_hit), default=0)
    e = max((pos[j] for j in e_hit), default=0)
    max_style = 2 * e - 1 if e > f else 2 * f
    return 2 * m - max_style


def _move_to_front(perm: tuple[int, ...], hits: frozenset[int]) -> tuple[int, ...]:
    if not hits:
        return perm
    return tuple(j for j in perm if j in hits) + tuple(j for j in perm if j not in hits)


def solve_conjunction(arena: Arena, active: list[tuple[bool, ...]] | None = None
                      ) -> ConjunctionResult:
    """Decide whether Seeker can satisfy every active coordinate from the initial node.

    Inactive coordinates count as satisfied; the mask must be monotone
    non-increasing along edges. When Seeker wins, the returned witness is
    verified against every Spoiler response (any memory) by checking that the
    strategy-restricted record graph has no reachable cycle violating a
    coordinate; an unverifiable answer raises instead of being returned.
    """
    arena.check()
    if active is None:
        active = [tuple(True for _ in range(arena.k)) for _ in arena.nodes]
    _check_mask(arena, active)
    eff = effective_priorities(arena, active)
    m, e_hits, f_hits = _build_pairs(arena, eff)

    init_perm = tuple(range(m))
    start = (arena.initial, init_perm)
    index: dict[tuple[int, tuple[int, ...]], int] = {start: 0}
    items: list[tuple[int, tuple[int, ...]]] = [start]
    succ: list[list[int]] = []
    prio: dict[int, int] = {}
    frontier = 0
    while frontier < len(items):
        v, perm = items[frontier]
        prio[frontier] = _record_priority(perm, e_hits[v], f_hits[v], m)
        nxt_perm = _move_to_front(perm, f_hits[v])
        row = []
        for w in arena.succ[v]:
            key = (w, nxt_perm)
            if key not in index:
                index[key] = len(items)
                items.append(key)
        for w in arena.succ[v]:
            row.append(index[(w, nxt_perm)])
        succ.append(row)
        frontier += 1

    owner = [arena.owner[v] for v, _ in items]
    _ensure_recursion_room()
    pred = _predecessors(succ)
    w0, w1, s0, _ = _zielonka(set(range(len(items))), owner, succ, prio, pred)
    if 0 not in w0:
        return ConjunctionResult(False, None, 0)

    choice: dict[tuple[tuple[int, ...], int], int] = {}
    for idx in sorted(w0):
        v, perm = items[idx]
        if owner[idx] == SEEKER:
            target = s0.get(idx)
            if target is None:
                continue
            choice[(perm, v)] = succ[idx].index(target)

    # verification: restrict Seeker to the chosen edges, keep every Spoiler
    # move, and demand that no reachable cycle has an odd minimum in any
    # coordinate of the effective priorities
    restricted: dict[int, list[int]] = {}
    for idx in range(len(items)):
        v, perm = items[idx]
        if owner[idx] == SEEKER and (perm, v) in choice:
            restricted[idx] = [succ[idx][choice[(perm, v)]]]
        else:
            restricted[idx] = list(succ[idx])
    reach = reachable_from([0], restricted)
    for i in range(arena.k):
        shifted = {idx: eff[items[idx][0]][i] + 1 for idx in reach}
        bad = find_even_min_cycle(sorted(reach),
                                  {idx: [w for w in restricted[idx] if w in reach]
                                   for idx in reach},
                                  shifted, [0])
        if bad is not None:
            raise AssertionError(
                f"conjunction witness failed verification on coordinate {i}: cycle {bad[1]}")
    memory_used = len({perm for idx in reach for _, perm in [items[idx]]})
    machine = WitnessMachine(init=init_perm, f_hits=list(f_hits),
                             choice=choice, memory_used=memory_used)
    return ConjunctionResult(True, machine, memory_used)
