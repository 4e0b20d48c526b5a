import random
from dataclasses import dataclass, replace

import pytest

from brute import (brute_conjunction_exists, brute_parity_regions, find_even_min_cycle,
                   reachable_from)
from mtgames.arena import SEEKER, SPOILER, Arena
from mtgames.core import InputError
from mtgames.equilibria import _knowledge_arena, _machine_to_moore
from mtgames.generate import random_mtg, random_strategy
from mtgames.solvers import effective_priorities, solve_conjunction, solve_one_player, tarjan_scc
from mtgames.strategy import Profile, _winners

# Reference solvers for arenas of any shape: full two-player parity solving by
# recursive region decomposition (Zielonka), with memoryless witnesses for both
# sides verified by re-simulation, and the conjunction of parity coordinates
# reduced to one parity condition on an index-appearance-record product and
# solved the same way. They are the oracles for the library's two solvers.


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


@dataclass
class ParityResult:
    seeker_region: frozenset[int]
    spoiler_region: frozenset[int]
    seeker_strategy: dict[int, int]
    spoiler_strategy: dict[int, int]
    seeker_wins_initial: bool


def _verify_memoryless(arena: Arena, coordinate: int, region: set[int],
                       strategy: dict[int, int], side: int) -> None:
    """Check a claimed memoryless winning strategy by cycle analysis.

    Restricts the winner's nodes to the strategy edge and checks that no cycle
    of the wrong parity is reachable within the region; raises on failure.
    """
    sub: dict[int, list[int]] = {}
    for v in region:
        if arena.owner[v] == side:
            w = strategy.get(v)
            if w is None or w not in region:
                raise AssertionError(f"strategy missing or escaping region at node {v}")
            sub[v] = [w]
        else:
            outs = [w for w in arena.succ[v] if w in region]
            if len(outs) != len(arena.succ[v]):
                raise AssertionError(f"opponent can escape region at node {v}")
            sub[v] = outs
    # a cycle with min parity of the opponent would refute the region
    shift = 0 if side == 1 else 1
    prio = {v: arena.priorities[v][coordinate] + shift for v in region}
    bad = find_even_min_cycle(sorted(region), sub, prio, sorted(region))
    if bad is not None:
        raise AssertionError(f"strategy verification failed: bad cycle {bad[1]}")


def solve_parity(arena: Arena, coordinate: int = 0) -> ParityResult:
    """Solve the two-player parity game on ``coordinate``; regions partition the arena."""
    arena.check()
    if not 0 <= coordinate < arena.k:
        raise InputError(f"coordinate {coordinate} out of range for k={arena.k}")
    prio = {v: arena.priorities[v][coordinate] for v in range(len(arena.nodes))}
    pred = _predecessors(arena.succ)
    w0, w1, s0, s1 = _zielonka(set(range(len(arena.nodes))), arena.owner,
                               arena.succ, prio, pred)
    if w0:
        _verify_memoryless(arena, coordinate, w0, s0, SEEKER)
    if w1:
        _verify_memoryless(arena, coordinate, w1, s1, SPOILER)
    seeker_edges = {v: arena.succ[v].index(w) for v, w in s0.items() if arena.owner[v] == SEEKER}
    spoiler_edges = {v: arena.succ[v].index(w) for v, w in s1.items() if arena.owner[v] == SPOILER}
    return ParityResult(frozenset(w0), frozenset(w1), seeker_edges, spoiler_edges,
                        arena.initial in w0)


@dataclass
class ReferenceConjunction:
    winner: bool
    choice: dict[tuple[tuple[int, ...], int], int] | None
    memory_used: int


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


def reference_conjunction(arena: Arena) -> ReferenceConjunction:
    """The conjunction of the priority coordinates on an arena of any shape.

    Each odd value ``c`` of a coordinate becomes a request/response pair
    (seeing ``c`` infinitely often requires seeing something smaller infinitely
    often), tracked by an index-appearance record so one parity condition
    remains; Zielonka's algorithm solves the product. A Seeker win is verified
    against every Spoiler response by cycle analysis of the strategy-restricted
    product, and ``choice`` maps (record, node) to the edge taken.
    """
    arena.check()
    eff = arena.priorities
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
        for w in arena.succ[v]:
            if (w, nxt_perm) not in index:
                index[(w, nxt_perm)] = len(items)
                items.append((w, nxt_perm))
        succ.append([index[(w, nxt_perm)] for w in arena.succ[v]])
        frontier += 1

    owner = [arena.owner[v] for v, _ in items]
    w0, _, s0, _ = _zielonka(set(range(len(items))), owner, succ, prio, _predecessors(succ))
    if 0 not in w0:
        return ReferenceConjunction(False, None, 0)
    choice = {(perm, v): succ[idx].index(s0[idx])
              for idx, (v, perm) in enumerate(items)
              if idx in w0 and owner[idx] == SEEKER and idx in s0}
    restricted = {idx: [succ[idx][choice[(perm, v)]]] if (perm, v) in choice else succ[idx]
                  for idx, (v, perm) in enumerate(items)}
    reach = reachable_from([0], restricted)
    for i in range(arena.k):
        shifted = {idx: eff[items[idx][0]][i] + 1 for idx in reach}
        bad = find_even_min_cycle(sorted(reach), {idx: [w for w in restricted[idx] if w in reach]
                                                  for idx in reach}, shifted, [0])
        assert bad is None, f"reference witness fails coordinate {i}: cycle {bad[1]}"
    return ReferenceConjunction(True, choice, len({items[idx][1] for idx in reach}))


def random_arena(rng: random.Random, n_nodes: int = 8, k: int = 1,
                 max_priority: int = 3, max_succ: int = 2,
                 all_seeker: bool = False) -> Arena:
    owner = [SEEKER if all_seeker else rng.randint(0, 1) for _ in range(n_nodes)]
    succ = []
    for _ in range(n_nodes):
        fan = rng.randint(1, max_succ)
        row = sorted(rng.sample(range(n_nodes), min(fan, n_nodes)))
        succ.append(row)
    labels = [[None] * len(row) for row in succ]
    priorities = [tuple(rng.randrange(0, max_priority + 1) for _ in range(k))
                  for _ in range(n_nodes)]
    return Arena(nodes=list(range(n_nodes)), owner=owner, succ=succ, labels=labels,
                 priorities=priorities, initial=0, k=k)


def forward_closed_set(rng: random.Random, arena: Arena, seed_count: int) -> set[int]:
    """A random node set closed under successors (used to build monotone masks)."""
    n = len(arena.nodes)
    closed: set[int] = set()
    frontier = [rng.randrange(n) for _ in range(seed_count)]
    while frontier:
        v = frontier.pop()
        if v in closed:
            continue
        closed.add(v)
        frontier.extend(arena.succ[v])
    return closed


def single_node_arena(priority: int) -> Arena:
    return Arena(nodes=["only"], owner=[SEEKER], succ=[[0]], labels=[["loop"]],
                 priorities=[(priority,)], initial=0, k=1)


ARENA_DEFECTS = {  # name -> (changed fields, message)
    "short owner list": (dict(owner=[]), "one entry per node"),
    "initial out of range": (dict(initial=1), "initial node 1 out of range"),
    "successor out of range": (dict(succ=[[5]]), "successor out of range"),
    "negative successor": (dict(succ=[[-1]]), "successor out of range"),
    "unknown owner": (dict(owner=[2]), "neither SEEKER nor SPOILER"),
    "no successors": (dict(succ=[[]]), "node 0 has no successors"),
    "priority length": (dict(priorities=[(0, 0)]), "priority vector of node 0 has wrong length"),
    "label count": (dict(labels=[[]]), "labels of node 0 do not match"),
}


@pytest.mark.parametrize("defect", sorted(ARENA_DEFECTS))
def test_both_solvers_reject_a_malformed_arena(defect):
    changes, message = ARENA_DEFECTS[defect]
    arena = replace(single_node_arena(0), **changes)
    for solve in (solve_conjunction, solve_one_player):
        with pytest.raises(InputError, match=message):
            solve(arena)


class TestSolveOnePlayer:
    def test_even_self_loop(self):
        ok, lasso = solve_one_player(single_node_arena(0))
        assert ok
        assert lasso.cycle == [0]
        assert lasso.cycle_labels == ["loop"]

    def test_odd_self_loop(self):
        ok, lasso = solve_one_player(single_node_arena(1))
        assert not ok and lasso is None

    def test_unreachable_even_cycle(self):
        arena = Arena(nodes=["a", "b"], owner=[SEEKER, SEEKER],
                      succ=[[0], [1]], labels=[[None], [None]],
                      priorities=[(1,), (0,)], initial=0, k=1)
        ok, _ = solve_one_player(arena)
        assert not ok

    def test_witness_cycle_has_even_min(self):
        rng = random.Random(3)
        for _ in range(40):
            arena = random_arena(rng, n_nodes=6, all_seeker=True)
            ok, lasso = solve_one_player(arena)
            if ok:
                assert min(arena.priorities[v][0] for v in lasso.cycle) % 2 == 0
                walk = lasso.prefix + lasso.cycle + [lasso.cycle[0]]
                for u, w in zip(walk, walk[1:]):
                    assert w in arena.succ[u]

    def test_rejects_spoiler_nodes(self):
        arena = single_node_arena(0)
        arena.owner[0] = SPOILER
        with pytest.raises(InputError):
            solve_one_player(arena)

    def test_rejects_an_out_of_range_coordinate(self):
        with pytest.raises(InputError, match="coordinate 1 out of range for k=1"):
            solve_one_player(single_node_arena(0), coordinate=1)

    def test_agrees_with_two_player_solver(self):
        rng = random.Random(17)
        for _ in range(30):
            arena = random_arena(rng, n_nodes=6, all_seeker=True)
            ok, _ = solve_one_player(arena)
            assert ok == solve_parity(arena).seeker_wins_initial


class TestSolveParity:
    def test_all_even_all_seeker_winning(self):
        rng = random.Random(1)
        arena = random_arena(rng, n_nodes=5, max_priority=0)
        res = solve_parity(arena)
        assert res.seeker_region == frozenset(range(5))

    def test_all_odd_all_spoiler_winning(self):
        rng = random.Random(1)
        arena = random_arena(rng, n_nodes=5, max_priority=0)
        arena.priorities = [(1,) for _ in arena.nodes]
        res = solve_parity(arena)
        assert res.spoiler_region == frozenset(range(5))

    def test_regions_partition(self):
        rng = random.Random(2)
        for _ in range(30):
            arena = random_arena(rng, n_nodes=8)
            res = solve_parity(arena)
            assert res.seeker_region | res.spoiler_region == frozenset(range(8))
            assert not (res.seeker_region & res.spoiler_region)

    def test_agrees_with_memoryless_brute_force(self):
        rng = random.Random(4)
        for _ in range(25):
            arena = random_arena(rng, n_nodes=8)
            res = solve_parity(arena)
            assert res.seeker_region == frozenset(brute_parity_regions(arena))

    def test_deterministic_witnesses(self):
        rng = random.Random(9)
        arena = random_arena(rng, n_nodes=8)
        first = solve_parity(arena)
        second = solve_parity(arena)
        assert first.seeker_strategy == second.seeker_strategy
        assert first.spoiler_strategy == second.spoiler_strategy


def masked(arena: Arena, off: list[set[int]]) -> Arena:
    """``arena`` with coordinate i satisfied (priority 0) on the nodes of ``off[i]``."""
    active = [tuple(v not in off[i] for i in range(arena.k)) for v in range(len(arena.nodes))]
    return replace(arena, priorities=effective_priorities(arena, active))


def masked_at_random(arena: Arena, rng: random.Random) -> Arena:
    """``arena`` with each coordinate satisfied from a random successor-closed set on,
    as a knowledge arena's coordinate is once its topology has dropped out."""
    return masked(arena, [forward_closed_set(rng, arena, 1) for _ in range(arena.k)])


class TestSolveConjunction:
    """General arenas, where Spoiler may branch on a cycle, are outside
    ``solve_conjunction``'s input; these tests run the reference solver there,
    and both solvers where the arena is leveled."""

    def test_single_coordinate_equals_parity(self):
        rng = random.Random(6)
        for _ in range(25):
            arena = random_arena(rng, n_nodes=6)
            res = reference_conjunction(arena)
            assert res.winner == solve_parity(arena).seeker_wins_initial

    def test_duplicate_coordinate_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            arena = random_arena(rng, n_nodes=6)
            doubled = Arena(nodes=arena.nodes, owner=arena.owner, succ=arena.succ,
                            labels=arena.labels,
                            priorities=[(p[0], p[0]) for p in arena.priorities],
                            initial=0, k=2)
            assert reference_conjunction(doubled).winner == \
                solve_parity(arena).seeker_wins_initial

    def test_inactive_coordinates_count_as_satisfied(self):
        # an always-odd coordinate is forgiven exactly where deactivated
        arena = Arena(nodes=["a"], owner=[SEEKER], succ=[[0]], labels=[[None]],
                      priorities=[(1,)], initial=0, k=1)
        for solve in (solve_conjunction, reference_conjunction):
            assert not solve(arena).winner
            assert solve(masked(arena, [{0}])).winner

    def test_matches_bounded_brute_force(self):
        rng = random.Random(8)
        arenas = 0
        solver_wins = solver_losses = 0
        while arenas < 14:
            arena = random_arena(rng, n_nodes=6, k=2)
            if sum(1 for o in arena.owner if o == SEEKER) > 2:
                continue
            if arenas % 2 == 0:
                # odd-heavy priorities so losing instances occur too
                arena.priorities = [tuple(p | 1 for p in vec) if rng.random() < 0.7 else vec
                                    for vec in arena.priorities]
            else:
                arena = masked_at_random(arena, rng)
            arenas += 1
            res = reference_conjunction(arena)
            brute = brute_conjunction_exists(arena, memory_bound=2,
                                             m3_samples=300, rng=random.Random(arenas))
            solver_wins += res.winner
            solver_losses += not res.winner
            if brute:
                assert res.winner, "bounded brute force found a win the solver denied"
            if res.winner:
                assert res.choice is not None
                assert res.memory_used >= 1
        # the sample must exercise both verdicts to mean anything
        assert solver_wins > 0 and solver_losses > 0

    def test_antitone_in_active_set(self):
        # activating more coordinates never turns a false into a true, i.e. a
        # win with more active coordinates is still a win with fewer
        rng = random.Random(11)
        for _ in range(25):
            arena = random_arena(rng, n_nodes=6, k=2)
            off = [forward_closed_set(rng, arena, 1) for _ in range(arena.k)]
            off_more = [s | forward_closed_set(rng, arena, 1) for s in off]
            if reference_conjunction(masked(arena, off)).winner:
                assert reference_conjunction(masked(arena, off_more)).winner

    def test_deterministic(self):
        rng = random.Random(12)
        arena = random_arena(rng, n_nodes=6, k=2)
        r1 = reference_conjunction(arena)
        r2 = reference_conjunction(arena)
        assert r1.winner == r2.winner
        if r1.winner:
            assert r1.choice == r2.choice


def leveled(arena: Arena) -> Arena:
    """``arena`` with Seeker owning every Spoiler node that branches on a cycle."""
    succ = {v: arena.succ[v] for v in range(len(arena.nodes))}
    for comp in tarjan_scc(sorted(succ), succ):
        if len(comp) > 1 or comp[0] in succ[comp[0]]:
            for v in comp:
                if len(succ[v]) > 1:
                    arena.owner[v] = SEEKER
    return arena


def knowledge_questions(seed: int, count: int):
    """Random knowledge arenas with their targets, from games of 2-3 players,
    2-4 topologies, priorities up to 8 and strategies of memory 1-3."""
    rng = random.Random(seed)
    for _ in range(count):
        game = random_mtg(rng, n_players=rng.randint(2, 3), n_states=rng.randint(2, 5),
                          n_topologies=rng.randint(2, 4), max_priority=8)
        profile = Profile(tuple(random_strategy(rng, game, rng.randint(1, 3))
                                for _ in game.players))
        deviator = rng.choice(game.players)
        tlist = sorted(rng.sample(game.topologies, rng.randint(2, len(game.topologies))),
                       key=game.topologies.index)
        yield game, profile, deviator, tlist, _knowledge_arena(game, profile, deviator,
                                                               frozenset(tlist))


class TestLeveledConjunction:
    """``solve_conjunction`` on leveled arenas, against the reference solver."""

    def test_equals_reference_on_knowledge_arenas(self):
        verdicts = []
        for _, _, _, _, arena in knowledge_questions(31, 120):
            want = reference_conjunction(arena).winner
            assert solve_conjunction(arena).winner == want
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_equals_reference_on_random_leveled_arenas(self):
        rng = random.Random(32)
        verdicts = []
        for _ in range(150):
            arena = leveled(random_arena(rng, n_nodes=rng.randint(3, 8), k=rng.randint(1, 3),
                                         max_priority=rng.randint(2, 6), max_succ=3))
            plain = rng.random() >= 0.3
            if not plain:
                arena = masked_at_random(arena, rng)
            want = reference_conjunction(arena).winner
            assert solve_conjunction(arena).winner == want
            if arena.k == 1 and plain:
                assert want == solve_parity(arena).seeker_wins_initial
            verdicts.append(want)
        assert True in verdicts and False in verdicts

    def test_witnesses_replay_in_every_target_topology(self):
        wins = 0
        for game, profile, deviator, tlist, arena in knowledge_questions(33, 80):
            res = solve_conjunction(arena)
            if not res.winner:
                continue
            wins += 1
            strat = _machine_to_moore(game, arena, res.witness)
            strat.check(game, "witness")
            deviated = profile.substitute(game.players.index(deviator), strat)
            for t in tlist:
                assert deviator in _winners(game, t, deviated), (t, tlist)
        assert wins >= 10

    def test_branching_spoiler_on_a_cycle_is_rejected(self):
        # Spoiler at node 0 picks the even loop at node 1 or the odd one at node 2
        arena = Arena(nodes=["s", "even", "odd"], owner=[SPOILER, SEEKER, SEEKER],
                      succ=[[1, 2], [1], [2]], labels=[[None, None], [None], [None]],
                      priorities=[(0,), (0,), (1,)], initial=0, k=1)
        assert not solve_conjunction(arena).winner
        arena.succ[1] = [0]  # now node 0 lies on the cycle 0 -> 1 -> 0
        with pytest.raises(InputError, match="Spoiler node 0 branches"):
            solve_conjunction(arena)

    def test_deterministic(self):
        for _, _, _, _, arena in knowledge_questions(34, 10):
            assert solve_conjunction(arena) == solve_conjunction(arena)
