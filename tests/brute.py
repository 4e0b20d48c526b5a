"""Slow independent implementations used only as test oracles."""

from __future__ import annotations

import itertools
import math

import numpy as np

from mtgames.arena import SEEKER, Arena
from mtgames.core import Mtg
from mtgames.solvers import tarjan_scc
from mtgames.strategy import MooreStrategy, Profile


def functional_min_parity(next_node: dict[int, int], prio: dict[int, int], start: int) -> bool:
    """Verdict of the unique play in a functional graph: even minimum on the cycle."""
    seen: dict[int, int] = {}
    order = []
    v = start
    while v not in seen:
        seen[v] = len(order)
        order.append(v)
        v = next_node[v]
    cycle = order[seen[v]:]
    return min(prio[u] for u in cycle) % 2 == 0


def brute_parity_regions(arena: Arena, coordinate: int = 0) -> set[int]:
    """Seeker winning nodes by exhausting all memoryless strategy pairs."""
    n = len(arena.nodes)
    prio = {v: arena.priorities[v][coordinate] for v in range(n)}
    seeker_nodes = [v for v in range(n) if arena.owner[v] == SEEKER]
    spoiler_nodes = [v for v in range(n) if arena.owner[v] != SEEKER]
    seeker_maps = list(itertools.product(*[range(len(arena.succ[v])) for v in seeker_nodes]))
    spoiler_maps = list(itertools.product(*[range(len(arena.succ[v])) for v in spoiler_nodes]))
    wins = set()
    for start in range(n):
        won = False
        for sm in seeker_maps:
            good = True
            for tm in spoiler_maps:
                nxt = {}
                for v, c in zip(seeker_nodes, sm):
                    nxt[v] = arena.succ[v][c]
                for v, c in zip(spoiler_nodes, tm):
                    nxt[v] = arena.succ[v][c]
                if not functional_min_parity(nxt, prio, start):
                    good = False
                    break
            if good:
                won = True
                break
        if won:
            wins.add(start)
    return wins


def machine_beats_all_spoilers(arena: Arena, eff: list[tuple[int, ...]],
                               update: dict[tuple[int, int], int],
                               choice: dict[tuple[int, int], int],
                               n_mem: int) -> bool:
    """Does this finite-memory Seeker machine win every coordinate against anyone?

    Builds the machine/arena product with Spoiler unrestricted and rejects if
    any reachable cycle has an odd minimum in some coordinate.
    """
    start = (arena.initial, 0)
    succ: dict[tuple[int, int], list[tuple[int, int]]] = {}
    stack = [start]
    while stack:
        node = stack.pop()
        if node in succ:
            continue
        v, m = node
        m2 = update[(m, v)]
        if arena.owner[v] == SEEKER:
            targets = [arena.succ[v][choice[(m, v)]]]
        else:
            targets = list(arena.succ[v])
        succ[node] = [(w, m2) for w in targets]
        stack.extend(succ[node])
    nodes = list(succ)
    for i in range(arena.k):
        # an odd-minimum cycle exists iff some node of odd value c can reach
        # itself through nodes of value >= c only
        odd_values = sorted({eff[v][i] for v, _ in nodes if eff[v][i] % 2 == 1})
        for c in odd_values:
            keep_set = {nd for nd in nodes if eff[nd[0]][i] >= c}
            for nd in nodes:
                if eff[nd[0]][i] != c:
                    continue
                frontier = [w for w in succ[nd] if w in keep_set]
                seen = set(frontier)
                while frontier:
                    u = frontier.pop()
                    if u == nd:
                        return False
                    for w in succ[u]:
                        if w in keep_set and w not in seen:
                            seen.add(w)
                            frontier.append(w)
    return True


def brute_conjunction_exists(arena: Arena, memory_bound: int = 2, m3_samples: int = 0,
                             rng=None) -> bool:
    """Bounded search for a winning Seeker machine, certified against all Spoilers.

    Exhaustive up to ``memory_bound`` memory states; optionally adds sampled
    3-memory machines. Sound: True always comes with a certified machine.
    """
    eff = arena.priorities
    n = len(arena.nodes)
    seeker_nodes = [v for v in range(n) if arena.owner[v] == SEEKER]
    for n_mem in range(1, memory_bound + 1):
        upd_space = itertools.product(range(n_mem), repeat=n_mem * n)
        for upd_flat in upd_space:
            update = {(m, v): upd_flat[m * n + v] for m in range(n_mem) for v in range(n)}
            for ch_flat in itertools.product(*[range(len(arena.succ[v]))
                                               for m in range(n_mem) for v in seeker_nodes]):
                choice = {}
                pos = 0
                for m in range(n_mem):
                    for v in seeker_nodes:
                        choice[(m, v)] = ch_flat[pos]
                        pos += 1
                if machine_beats_all_spoilers(arena, eff, update, choice, n_mem):
                    return True
    if m3_samples and rng is not None:
        n_mem = 3
        for _ in range(m3_samples):
            update = {(m, v): rng.randrange(n_mem) for m in range(n_mem) for v in range(n)}
            choice = {(m, v): rng.randrange(len(arena.succ[v]))
                      for m in range(n_mem) for v in seeker_nodes}
            if machine_beats_all_spoilers(arena, eff, update, choice, n_mem):
                return True
    return False


def naive_strategy_space(game: Mtg, memory: int) -> list[tuple]:
    """Every Moore machine encoding with exactly ``memory`` states, no dedup."""
    n_s, n_a = len(game.states), len(game.actions)
    cells = memory * n_s
    out = []
    for upd in itertools.product(range(memory), repeat=cells):
        for act in itertools.product(range(n_a), repeat=cells):
            out.append((upd, act))
    return out


def isomorphic_encodings(enc: tuple, memory: int, n_states: int) -> set[tuple]:
    """All renamings of a machine encoding under permutations fixing memory 0."""
    upd, act = enc
    outs = set()
    for tail in itertools.permutations(range(1, memory)):
        phi = (0,) + tail
        inv = [0] * memory
        for i, x in enumerate(phi):
            inv[x] = i
        new_upd = tuple(phi[upd[inv[m] * n_states + s]]
                        for m in range(memory) for s in range(n_states))
        new_act = tuple(act[inv[m] * n_states + s]
                        for m in range(memory) for s in range(n_states))
        outs.add((new_upd, new_act))
    return outs


def raw_step_wintop(game: Mtg, profile: Profile, player: str) -> frozenset[str]:
    """Winning topologies by raw simulation: run twice the product bound and
    inspect the tail's state set."""
    horizon = len(game.states)
    for strat in profile.by_player:
        horizon *= len(strat.memory)
    wins = set()
    for t in game.topologies:
        s = game.initial
        mems = [strat.init for strat in profile.by_player]
        tail: list[str] = []
        for step_i in range(2 * horizon):
            actions = tuple(strat.action(m, s) for strat, m in zip(profile.by_player, mems))
            mems = [strat.advance(m, s) for strat, m in zip(profile.by_player, mems)]
            s = game.transition[(t, s, actions)]
            if step_i >= horizon:
                tail.append(s)
        if min(game.priority[(t, player, u)] for u in set(tail)) % 2 == 0:
            wins.add(t)
    return frozenset(wins)


def residual_closed_walk(game: Mtg, fixed: dict[int, MooreStrategy], topology: str,
                         wants: dict[int, int]) -> bool:
    """Is there a closed walk, reachable from the start, with the wanted minima parities?

    The players in ``fixed`` play their strategies and the others choose
    freely at every step. Exhausts the node sets of the reachable residual
    graph: a closed walk visits exactly the nodes of a set that is strongly
    connected through its own nodes, and each such set has one.
    """
    order = sorted(fixed)
    start = (game.initial, tuple(fixed[i].init for i in order))
    nodes, succ = [start], {}
    for node in nodes:
        s, mems = node
        succ[node] = set()
        for actions in game.action_profiles():
            if any(actions[i] != fixed[i].action(m, s) for i, m in zip(order, mems)):
                continue
            child = (game.transition[(topology, s, actions)],
                     tuple(fixed[i].advance(m, s) for i, m in zip(order, mems)))
            succ[node].add(child)
            if child not in succ and child not in nodes:
                nodes.append(child)
    for size in range(1, len(nodes) + 1):
        for part in itertools.combinations(nodes, size):
            inside = set(part)
            closed = True
            for u in part:
                seen, frontier = set(), [u]
                while frontier:
                    for w in succ[frontier.pop()] & inside:
                        if w not in seen:
                            seen.add(w)
                            frontier.append(w)
                if seen != inside:
                    closed = False
                    break
            if closed and all(min(game.priority[(topology, game.players[q], s)]
                                  for s, _ in part) % 2 == want
                              for q, want in wants.items()):
                return True
    return False


# ---------------------------------------------------------------------------
# the closed-walk kernel's reference


def float_closed_walk_exists(delta: np.ndarray, prio: np.ndarray,
                       tables: list[tuple[np.ndarray, np.ndarray] | None], rows: list,
                       s0: int, n_actions: int, wants: np.ndarray) -> np.ndarray:
    """Decide a batch of residual graphs; return flags (batch, top): the reference kernel.

    This is ``_kernels.closed_walk_exists`` as it was before it held its
    graphs as packed bit rows: bool adjacency, closed by repeated squaring
    in float32. It takes one ``(T, n)`` pattern of wants.

    Players with an ``(update, act)`` pair in ``tables``, each of shape
    ``(D_p, M_p, S)``, are fixed: ``rows[p]`` is an index vector saying which
    of them graph ``b`` fixes. Players whose entry is ``None`` are free. A
    graph of topology ``t`` has a node per (fixed players' memories, state)
    and an edge per free players' joint action. ``wants[t, q]`` is 0 or 1
    for the parity wanted of player ``q``'s minimum priority in topology
    ``t``, or -1 for no constraint. Entry ``[b, t]`` is True iff graph ``b``
    has a closed walk, reachable from the start, whose minimum priority has
    the wanted parity for every constrained player of ``t``.

    This is the SCC emptiness test of Emerson and Lei ("Modalities for model
    checking", 1987). Each vector of candidate minima ``e`` (one value of the
    wanted parity per constrained player) restricts the graph to the nodes
    where every priority is at least its ``e``; the restricted closure,
    computed by repeated squaring, gives mutual reachability, and ``e`` is
    met iff some reachable node shares a cycle with a node of priority
    exactly ``e_q`` for every ``q``. Graphs go in sub-batches of at most
    2^19 adjacency entries.
    """
    n_top, n_pla, n_states = prio.shape
    fixed = [p for p, pair in enumerate(tables) if pair is not None]
    free = [p for p, pair in enumerate(tables) if pair is None]
    if not fixed or len(tables) != n_pla or {len(rows[p]) for p in fixed} != {len(rows[fixed[0]])}:
        raise ValueError(f"expected {n_pla} tables, at least one fixed, with row "
                         "indices of one length")
    batch = len(rows[fixed[0]])
    mem_sizes = [tables[p][0].shape[1] for p in fixed]
    n_nodes = n_states * math.prod(mem_sizes)

    # node (mem_0 * M_1 + mem_1) * ... * S + s; each fixed player's share of
    # the successor's memory and of the joint action comes from one of its
    # (memory, state) cells
    state = np.arange(n_nodes) % n_states
    digits = np.indices(mem_sizes).reshape(len(fixed), -1)[:, np.arange(n_nodes) // n_states]
    next_node = np.zeros((batch, n_nodes), dtype=np.int64)
    joint = np.zeros((batch, n_nodes), dtype=np.int64)
    for f, p in enumerate(fixed):
        upd, act = (t.reshape(len(t), -1)[:, digits[f] * n_states + state] for t in tables[p])
        next_node += upd[rows[p]] * (n_states * math.prod(mem_sizes[f + 1:]))
        joint += act[rows[p]] * n_actions ** (n_pla - 1 - p)
    offsets = np.zeros(1, dtype=np.int64)  # the free players' shares, one per joint choice
    for p in free:
        offsets = (offsets[:, None] + np.arange(n_actions) * n_actions ** (n_pla - 1 - p)).ravel()
    joint = joint[:, :, None] + offsets

    out = np.zeros((batch, n_top), dtype=bool)
    sub = max(1, (1 << 13) * 64 // (n_nodes * n_nodes))
    for t in range(n_top):
        cand = [(q, sorted({int(v) for v in prio[t, q] if v % 2 == wants[t, q]}))
                for q in range(n_pla) if wants[t, q] >= 0]
        at = prio[t][:, state]  # (players, nodes)
        for lo in range(0, batch, sub):
            hi = min(lo + sub, batch)
            succ = next_node[lo:hi, :, None] + delta[t][state[:, None], joint[lo:hi]]
            adj = np.zeros((hi - lo, n_nodes, n_nodes), dtype=bool)
            np.put_along_axis(adj, succ, True, axis=2)
            full = _float_closure(adj)
            reach = full[:, s0]  # the start itself matters only on a cycle
            found = np.zeros(hi - lo, dtype=bool)
            for e in itertools.product(*(vals for _, vals in cand)):
                keep = np.ones(n_nodes, dtype=bool)
                for (q, _), v in zip(cand, e):
                    keep &= at[q] >= v
                hits = [at[q][keep] == v for (q, _), v in zip(cand, e)]
                if not all(h.any() for h in hits):
                    continue
                nodes = np.nonzero(keep)[0]
                closed = full if len(nodes) == n_nodes else _float_closure(adj[:, nodes][:, :, nodes])
                mutual = closed & closed.transpose(0, 2, 1)
                good = reach[:, nodes]
                for h in hits:
                    good &= mutual[:, :, h].any(axis=2)
                found |= good.any(axis=1)
            out[lo:hi, t] = found
    return out


def _float_closure(adj: np.ndarray) -> np.ndarray:
    """Pairs joined by a walk of length at least one, per graph of a (B, N, N) batch."""
    reach = adj
    span = 1
    while span < adj.shape[1]:
        f = reach.astype(np.float32)
        wider = reach | (np.matmul(f, f) > 0)
        span *= 2
        if np.array_equal(wider, reach):
            break
        reach = wider
    return reach


# ---------------------------------------------------------------------------
# the single-target deviation route: residual game, even-minimum cycle, lasso


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


def bfs_path(sources: list[int], goals: set[int], succ: dict[int, list[int]]) -> list[int] | None:
    """Shortest node path from the nearest source to any goal; includes both endpoints."""
    prev: dict[int, int | None] = dict.fromkeys(sources)
    frontier = list(sources)
    while frontier:
        nxt = []
        for v in frontier:
            if v in goals:
                path = [v]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                return path[::-1]
            for w in succ.get(v, ()):
                if w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def find_even_min_cycle(nodes: list[int], succ: dict[int, list[int]],
                        prio: dict[int, int], sources: list[int]
                        ) -> tuple[list[int], list[int]] | None:
    """A reachable cycle whose minimum priority is even, as ``(prefix, cycle)``, or None.

    For each even value ``e`` in ascending order, restricts to nodes with
    priority at least ``e`` and looks for a strongly connected component with
    a priority-``e`` node on a cycle. The prefix ends just before ``cycle[0]``.
    """
    reach = reachable_from(sources, succ)
    for e in sorted({prio[v] for v in reach if prio[v] % 2 == 0}):
        keep = {v for v in reach if prio[v] >= e}
        sub = {v: [w for w in succ[v] if w in keep] for v in keep}
        for comp in tarjan_scc(sorted(keep), sub):
            inside = set(comp)
            comp_succ = {u: [w for w in sub[u] if w in inside] for u in comp}
            for v in comp:
                if prio[v] != e:
                    continue
                tail = bfs_path(comp_succ[v], {v}, comp_succ)
                if tail is not None:
                    return bfs_path(sources, {v}, succ)[:-1], [v] + tail[:-1]
    return None


def residual_arena(game: Mtg, profile: Profile, deviator: str, topology: str) -> Arena:
    """The one-player game the deviator faces in ``topology`` against the co-strategies."""
    di = game.players.index(deviator)
    co = [i for i in range(len(game.players)) if i != di]
    init = (game.initial, tuple(profile.by_player[i].init for i in co))
    nodes, index, succ, labels = [init], {init: 0}, [], []
    for s, mems in nodes:
        prof = [""] * len(game.players)
        for i, mem in zip(co, mems):
            prof[i] = profile.by_player[i].action(mem, s)
        new_mems = tuple(profile.by_player[i].advance(mem, s) for i, mem in zip(co, mems))
        succ.append([])
        labels.append(list(game.actions))
        for a in game.actions:
            prof[di] = a
            child = (game.transition[(topology, s, tuple(prof))], new_mems)
            if child not in index:
                index[child] = len(nodes)
                nodes.append(child)
            succ[-1].append(index[child])
    return Arena(nodes=nodes, owner=[SEEKER] * len(nodes), succ=succ, labels=labels,
                 priorities=[(game.priority[(topology, deviator, s)],) for s, _ in nodes],
                 initial=0, k=1)


def lasso_strategy(game: Mtg, actions: list[str], loop_to: int) -> MooreStrategy:
    """Play ``actions`` in turn, whatever the states, then repeat from ``loop_to``."""
    mems = tuple(f"m{i}" for i in range(len(actions)))
    update, act = {}, {}
    for i, a in enumerate(actions):
        nxt = mems[i + 1] if i + 1 < len(actions) else mems[loop_to]
        for s in game.states:
            update[(mems[i], s)] = nxt
            act[(mems[i], s)] = a
    return MooreStrategy(memory=mems, init="m0", update=update, act=act)


def reference_single_target(game: Mtg, profile: Profile, deviator: str,
                            topology: str) -> tuple[bool, MooreStrategy | None]:
    """Can ``deviator`` win ``topology``? Decided on the residual game by an
    even-minimum cycle search; the witness follows the lasso's actions."""
    arena = residual_arena(game, profile, deviator, topology)
    succ = dict(enumerate(arena.succ))
    prio = {v: p for v, (p,) in enumerate(arena.priorities)}
    found = find_even_min_cycle(sorted(succ), succ, prio, [arena.initial])
    if found is None:
        return False, None
    prefix, cycle = found
    walk = prefix + cycle + [cycle[0]]
    actions = [arena.labels[u][arena.succ[u].index(w)] for u, w in zip(walk, walk[1:])]
    return True, lasso_strategy(game, actions, len(prefix))


def reference_cycle_sets(nodes: list, succ: dict, bound: int, name) -> list[tuple[list, list]]:
    """Each state set of closed walks of length <= bound, as sorted ``name``s, with one walk.

    The frozenset-keyed dynamic program over (current node, visited set) that
    ``oracles._reachable_cycle_sets`` replaced; ``succ`` must stay within ``nodes``.
    """
    found: dict[frozenset, list] = {}
    for start in nodes:
        # layer: (node, frozenset) -> witness path from start (node sequence)
        layer: dict[tuple, list] = {(start, frozenset({start})): [start]}
        for _ in range(bound):
            nxt: dict[tuple, list] = {}
            for (v, seen), path in layer.items():
                for w in succ[v]:
                    if w == start:
                        if seen not in found:
                            found[seen] = path
                    key = (w, seen | {w})
                    if key not in nxt:
                        nxt[key] = path + [w]
            layer = nxt
    return sorted(((sorted(map(name, seen)), walk) for seen, walk in found.items()),
                  key=lambda c: c[0])
