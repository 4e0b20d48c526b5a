"""Slow independent implementations used only as test oracles."""

from __future__ import annotations

import itertools

from mtgames.arena import SEEKER, Arena
from mtgames.core import Mtg
from mtgames.solvers import effective_priorities
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


def brute_conjunction_exists(arena: Arena, active: list[tuple[bool, ...]],
                             memory_bound: int = 2, m3_samples: int = 0,
                             rng=None) -> bool:
    """Bounded search for a winning Seeker machine, certified against all Spoilers.

    Exhaustive up to ``memory_bound`` memory states; optionally adds sampled
    3-memory machines. Sound: True always comes with a certified machine.
    """
    eff = effective_priorities(arena, active)
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
