"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings. Timing budgets are for one worker (``jobs=1``) on the
numpy kernels, which need no warm-up.
"""

import itertools
import random
import time

import numpy as np

from mtgames import io as mio
from mtgames.core import symmetrize
from mtgames.equilibria import DeviationOracle, can_deviator_win_set, check_cne, check_gne, check_ne
from mtgames.generate import random_mtg
from mtgames.io import data_path
from mtgames.oracles import deviator_wintop_masks, gamma_sample, omega_rank_agreement
from mtgames.reductions import build_cne_game, build_gne_game, challenge_sets
from mtgames.search import find_gne
from mtgames.strategy import Profile, constant_strategy, enumerate_strategies, wintop


def _report(criterion: int, elapsed: float, budget: float, detail: str) -> None:
    verdict = "PASS" if elapsed < budget else "FAIL"
    print(f"{verdict}: criterion {criterion} ({elapsed:.2f}s < {budget:.0f}s) {detail}")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def _all_target_tuples(game):
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(game.topologies, r)
        for r in range(len(game.topologies) + 1)))
    for combo in itertools.product(subsets, repeat=len(game.players)):
        yield {p: frozenset(ts) for p, ts in zip(game.players, combo)}


def _corpus(n_games: int = 200):
    # bounds from the criterion; weighted toward the rich end so most games
    # have real action choices and two topologies, with some degenerate ones
    rng = random.Random(20240)
    games = []
    for _ in range(n_games):
        games.append(random_mtg(rng,
                                n_players=rng.choice([1, 2, 2, 2]),
                                n_states=rng.randint(2, 4),
                                n_actions=rng.choice([1, 2, 2, 2]),
                                n_topologies=rng.choice([1, 2, 2, 2])))
    return games


def _memoryless_profiles(game):
    per_player = [list(enumerate_strategies(game, 1)) for _ in game.players]
    for combo in itertools.product(*per_player):
        yield Profile(tuple(combo))


def test_criterion_1_router_golden(router, turn_taking):
    t0 = time.time()
    for p in router.players:
        assert wintop(router, turn_taking, p) == {"A", "B"}
    assert check_cne(router, turn_taking).verdict
    assert check_gne(router, turn_taking).verdict
    _report(1, time.time() - t0, 1.0,
            "turn-taking profile wins everywhere and is both CNE and GNE")


def test_criterion_2_fig3_golden(fig3):
    t0 = time.time()
    always1 = Profile((constant_strategy(fig3, "1"),))
    always2 = Profile((constant_strategy(fig3, "2"),))
    assert wintop(fig3, always1, "solo") == {"t1"}
    assert wintop(fig3, always2, "solo") == {"t2"}
    for profile in (always1, always2):
        assert check_cne(fig3, profile).verdict
        report = check_gne(fig3, profile)
        assert not report.verdict
        witness = report.witness
        achieved = wintop(fig3, Profile((witness.strategy,)), witness.player)
        assert witness.targets <= achieved
        assert not witness.targets <= report.wintop[witness.player]
    result = find_gne(fig3, 3)
    assert result.status == "exhausted-space"
    _report(2, time.time() - t0, 5.0,
            f"no greedy equilibrium up to memory 3 ({result.examined} candidates)")


def test_criterion_3_xor_golden(xor):
    t0 = time.time()
    oracle = DeviationOracle(xor)
    count = 0
    for profile in _memoryless_profiles(xor):
        count += 1
        assert check_cne(xor, profile, oracle=oracle).verdict
        assert not check_gne(xor, profile, oracle=oracle).verdict
        assert not check_ne(xor, "t1", profile).verdict
        assert not check_ne(xor, "t2", profile).verdict
    assert count == 64  # covers every memoryless profile, 8 per player
    _report(3, time.time() - t0, 5.0,
            f"all {count} memoryless profiles: CNE yes, NE/GNE no")


def test_criterion_4_rank_vs_semantics(router, fig3):
    worst = 0.0
    checked = 0
    instances = 0
    for game in (router, fig3):
        for targets in _all_target_tuples(game):
            for build in (build_cne_game, build_gne_game):
                t0 = time.time()
                res = omega_rank_agreement(build(game, targets), cycle_bound=8)
                elapsed = time.time() - t0
                worst = max(worst, elapsed)
                assert res.disagreements == [], (build.__name__, targets)
                checked += res.checked
                instances += 1
    _report(4, worst, 60.0,
            f"worst instance time; {instances} instances, {checked} cycle sets, 0 disagreements")


def test_criterion_5_correspondence_harness(router, fig3):
    t0 = time.time()
    instances = [
        (router, build_cne_game(router, {"blue": frozenset({"A", "B"}),
                                         "red": frozenset({"A", "B"})})),
        (fig3, build_cne_game(fig3, {"solo": frozenset({"t1"})})),
    ]
    for game, h in instances:
        res = gamma_sample(game, h, samples=100, seed=99)
        assert res.samples == 100
        assert res.mismatches == []
    _report(5, time.time() - t0, 30.0,
            "100 sampled commitments per instance, projections match exactly")


def test_criterion_6_observation_suite():
    t0 = time.time()
    games = _corpus(200)
    profiles_checked = 0
    for game in games:
        oracle = DeviationOracle(game)
        single = len(game.topologies) == 1
        for profile in _memoryless_profiles(game):
            profiles_checked += 1
            gne = check_gne(game, profile, oracle=oracle)
            cne = check_cne(game, profile, oracle=oracle)
            if gne.verdict:
                assert cne.verdict, "greedy equilibrium that is not conservative"
            nes = {t: check_ne(game, t, profile) for t in game.topologies}
            if gne.verdict:
                assert all(r.verdict for r in nes.values()), \
                    "greedy equilibrium failing a per-topology equilibrium"
            if single:
                only = nes[game.topologies[0]]
                assert gne.verdict == cne.verdict == only.verdict, \
                    "single-topology game where the three notions diverge"
    _report(6, time.time() - t0, 300.0,
            f"200 games, {profiles_checked} profiles, 0 violations")


def test_criterion_7_deviation_oracle_equivalence():
    t0 = time.time()
    games = _corpus(200)
    comparisons = 0
    for gi, game in enumerate(games):
        rng = random.Random(gi)
        memoryless = list(_memoryless_profiles(game))
        profiles = [memoryless[0], rng.choice(memoryless)]
        all_tops = frozenset(game.topologies)
        target_sets = [frozenset({t}) for t in game.topologies]
        if len(game.topologies) > 1:
            target_sets.append(all_tops)
        for profile in profiles:
            for deviator in game.players:
                masks = deviator_wintop_masks(game, profile, deviator, memory_bound=2)
                di = game.players.index(deviator)
                for targets in target_sets:
                    want = sum(1 << game.topologies.index(t) for t in targets)
                    brute = any(bool(np.any((m & want) == want))
                                for _, _, m in masks)
                    checker, strat = can_deviator_win_set(game, profile, deviator, targets)
                    comparisons += 1
                    assert not (brute and not checker), \
                        f"hard failure: bounded brute force beats the checker on {targets}"
                    if checker:
                        achieved = wintop(game, profile.substitute(di, strat), deviator)
                        assert targets <= achieved
    _report(7, time.time() - t0, 600.0,
            f"{comparisons} deviation questions, 0 hard failures")


def test_criterion_8_reduction_size_bounds(router, fig3):
    worst = 0.0
    instances = 0
    for game in (router, fig3):
        n_s, n_p, n_t = len(game.states), len(game.players), len(game.topologies)
        for targets in _all_target_tuples(game):
            t0 = time.time()
            h = build_cne_game(game, targets)
            _, family = challenge_sets(game, targets)
            assert len(family) <= 2 * n_p * n_t
            assert len(h.states) - 1 <= 2 * n_s * n_p * len(family) * n_t
            worst = max(worst, time.time() - t0)
            instances += 1
    _report(8, worst, 1.0, f"worst build+check time across {instances} instances")


def test_criterion_9_symmetrize_matches_bundled_router(router_base):
    t0 = time.time()
    expanded = symmetrize(router_base, 2)
    bundled = mio.load_game(data_path("router.game"))
    rename = {"12": "A", "21": "B"}
    assert expanded.players == bundled.players
    assert expanded.states == bundled.states
    assert expanded.actions == bundled.actions
    assert [rename[t] for t in expanded.topologies] == list(bundled.topologies)
    for (t, s, prof), target in expanded.transition.items():
        assert bundled.transition[(rename[t], s, prof)] == target
    for (t, p, s), v in expanded.priority.items():
        assert bundled.priority[(rename[t], p, s)] == v
    _report(9, time.time() - t0, 1.0,
            "permutation expansion of the base router is the bundled two-topology game")
