import random
from dataclasses import dataclass

import pytest

from brute import brute_conjunction_exists, brute_parity_regions
from mtgames.arena import SEEKER, SPOILER, Arena
from mtgames.core import InputError
from mtgames.solvers import (_ensure_recursion_room, _predecessors, _zielonka,
                             find_even_min_cycle, solve_conjunction, solve_one_player)

# Full two-player parity solving on the recursive region decomposition that
# solve_conjunction runs, with memoryless witnesses for both sides verified by
# re-simulation: the oracle for the other two solvers.


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
    _ensure_recursion_room()
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


def conjunction_mask(arena: Arena, rng: random.Random, extra_closed: int = 0):
    closed = [forward_closed_set(rng, arena, 1) for _ in range(arena.k)]
    mask = [tuple(v not in closed[i] for i in range(arena.k))
            for v in range(len(arena.nodes))]
    return mask


class TestSolveConjunction:
    def test_single_coordinate_equals_parity(self):
        rng = random.Random(6)
        for _ in range(25):
            arena = random_arena(rng, n_nodes=6)
            res = solve_conjunction(arena)
            assert res.winner == solve_parity(arena).seeker_wins_initial

    def test_duplicate_coordinate_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            arena = random_arena(rng, n_nodes=6)
            doubled = Arena(nodes=arena.nodes, owner=arena.owner, succ=arena.succ,
                            labels=arena.labels,
                            priorities=[(p[0], p[0]) for p in arena.priorities],
                            initial=0, k=2)
            assert solve_conjunction(doubled).winner == \
                solve_parity(arena).seeker_wins_initial

    def test_rejects_non_monotone_mask(self):
        arena = Arena(nodes=["a", "b"], owner=[SEEKER, SEEKER],
                      succ=[[1], [1]], labels=[[None], [None]],
                      priorities=[(0,), (0,)], initial=0, k=1)
        with pytest.raises(InputError):
            solve_conjunction(arena, [(False,), (True,)])

    def test_inactive_coordinates_count_as_satisfied(self):
        # an always-odd coordinate is forgiven exactly where deactivated
        arena = Arena(nodes=["a"], owner=[SEEKER], succ=[[0]], labels=[[None]],
                      priorities=[(1,)], initial=0, k=1)
        assert not solve_conjunction(arena).winner
        assert solve_conjunction(arena, [(False,)]).winner

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
                mask = [tuple(True for _ in range(arena.k)) for _ in arena.nodes]
            else:
                mask = conjunction_mask(arena, rng)
            arenas += 1
            res = solve_conjunction(arena, mask)
            brute = brute_conjunction_exists(arena, mask, memory_bound=2,
                                             m3_samples=300, rng=random.Random(arenas))
            solver_wins += res.winner
            solver_losses += not res.winner
            if brute:
                assert res.winner, "bounded brute force found a win the solver denied"
            if res.winner:
                assert res.witness is not None
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
            active_more = [tuple(v not in off[i] for i in range(arena.k))
                           for v in range(len(arena.nodes))]
            active_fewer = [tuple(v not in off_more[i] for i in range(arena.k))
                            for v in range(len(arena.nodes))]
            if solve_conjunction(arena, active_more).winner:
                assert solve_conjunction(arena, active_fewer).winner

    def test_deterministic(self):
        rng = random.Random(12)
        arena = random_arena(rng, n_nodes=6, k=2)
        r1 = solve_conjunction(arena)
        r2 = solve_conjunction(arena)
        assert r1.winner == r2.winner
        if r1.winner:
            assert r1.witness.choice == r2.witness.choice
