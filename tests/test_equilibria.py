import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from brute import reference_single_target, residual_arena
from mtgames import equilibria, oracles
from mtgames.arena import SEEKER, SPOILER
from mtgames.core import InputError, Mtg
from mtgames.equilibria import (DeviationOracle, KnowledgeNode, build_knowledge_arena,
                                can_deviator_win_set, check_cne, check_gne, check_ne,
                                deviation_questions)
from mtgames.generate import random_mtg, random_profile, random_strategy
from mtgames.oracles import brute_force_deviation
from mtgames.strategy import Profile, constant_strategy, enumerate_strategies, wintop


def multi_target_refutation():
    """A random game and memoryless profile that ``check_cne`` refutes with two targets."""
    game = random_mtg(random.Random(1), n_players=2, n_states=3, n_topologies=2)
    return game, Profile(tuple(constant_strategy(game, "0") for _ in game.players))


def knowledge_nodes(arena):
    return [n for n in arena.nodes if isinstance(n, KnowledgeNode)]


def random_questions(seed: int, count: int):
    """Random games of 2-3 players, 2-4 states and 2-4 topologies, each with a
    profile of memory 1-3 per player."""
    rng = random.Random(seed)
    for _ in range(count):
        game = random_mtg(rng, n_players=rng.randint(2, 3), n_states=rng.randint(2, 4),
                          n_topologies=rng.randint(2, 4))
        yield rng, game, Profile(tuple(random_strategy(rng, game, rng.randint(1, 3))
                                       for _ in game.players))


class TestBuildKnowledgeArena:
    def test_router_blue_deviation_against_stubborn_red(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        arena = build_knowledge_arena(router, profile, "blue", frozenset({"A"}))
        init = arena.nodes[arena.initial]
        assert init.state == "ready"
        assert init.consistent == {"A"}  # only targets are tracked
        ok, witness = can_deviator_win_set(router, profile, "blue", frozenset({"A"}))
        assert ok
        assert "A" in wintop(router, profile.substitute(0, witness), "blue")

    def test_single_topology_knowledge_sets_are_singletons(self, fig3):
        single = Mtg(players=fig3.players, states=fig3.states, initial=fig3.initial,
                     actions=fig3.actions, topologies=("t1",),
                     transition={k: v for k, v in fig3.transition.items() if k[0] == "t1"},
                     priority={k: v for k, v in fig3.priority.items() if k[0] == "t1"})
        profile = Profile((constant_strategy(single, "1"),))
        arena = build_knowledge_arena(single, profile, "solo", frozenset({"t1"}))
        assert all(len(n.consistent) == 1 for n in knowledge_nodes(arena))

    def test_identical_topologies_never_split(self, xor):
        profile = Profile((constant_strategy(xor, "0"), constant_strategy(xor, "1")))
        arena = build_knowledge_arena(xor, profile, "blue", frozenset({"t1", "t2"}))
        assert all(n.consistent == {"t1", "t2"} for n in arena.nodes)
        assert SPOILER not in arena.owner

    def test_single_target_arena_is_the_residual_game(self):
        for _, game, profile in random_questions(41, 25):
            for p in game.players:
                for t in game.topologies:
                    arena = build_knowledge_arena(game, profile, p, frozenset({t}))
                    ref = residual_arena(game, profile, p, t)
                    assert SPOILER not in arena.owner
                    assert len(arena.nodes) == len(ref.nodes)
                    assert [(n.state, n.memories) for n in arena.nodes] == ref.nodes
                    assert (arena.succ, arena.labels, arena.priorities) == \
                        (ref.succ, ref.labels, ref.priorities)

    def test_consistent_sets_are_target_subsets_and_spoiler_nodes_branch(self):
        splits = 0
        for rng, game, profile in random_questions(42, 40):
            targets = frozenset(rng.sample(game.topologies, rng.randint(1, len(game.topologies))))
            arena = build_knowledge_arena(game, profile, rng.choice(game.players), targets)
            for v, node in enumerate(arena.nodes):
                base = node if isinstance(node, KnowledgeNode) else node.base
                assert base.consistent <= targets
                if arena.owner[v] == SPOILER:
                    assert len(arena.succ[v]) >= 2
                    splits += 1
        assert splits

    def test_size_bound(self, router, turn_taking):
        arena = build_knowledge_arena(router, turn_taking, "blue", frozenset({"A", "B"}))
        bound = len(router.states) * 2 ** len(router.topologies) * 4
        assert len(knowledge_nodes(arena)) <= bound

    def test_knowledge_sets_shrink_along_edges(self, router, turn_taking):
        arena = build_knowledge_arena(router, turn_taking, "red", frozenset({"B"}))
        for v in range(len(arena.nodes)):
            node = arena.nodes[v]
            base = node if isinstance(node, KnowledgeNode) else node.base
            for w in arena.succ[v]:
                other = arena.nodes[w]
                other_base = other if isinstance(other, KnowledgeNode) else other.base
                assert other_base.consistent <= base.consistent

    def test_ownership_alternates(self, router, turn_taking):
        arena = build_knowledge_arena(router, turn_taking, "blue", frozenset({"A"}))
        for v in range(len(arena.nodes)):
            expected = SEEKER if isinstance(arena.nodes[v], KnowledgeNode) else SPOILER
            assert arena.owner[v] == expected

    def test_empty_targets_rejected(self, router, turn_taking):
        with pytest.raises(InputError, match="target topology set must be nonempty"):
            build_knowledge_arena(router, turn_taking, "blue", frozenset())
        with pytest.raises(InputError, match=r"unknown topologies in targets: \['Z'\]"):
            build_knowledge_arena(router, turn_taking, "blue", frozenset({"A", "Z"}))


class TestCanDeviatorWinSet:
    def test_router_stubborn_red_results(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        ok_a, _ = can_deviator_win_set(router, profile, "blue", frozenset({"A"}))
        ok_b, witness_b = can_deviator_win_set(router, profile, "blue", frozenset({"B"}))
        assert ok_a and not ok_b and witness_b is None

    def test_singleton_equals_residual_route(self):
        """Single targets agree with the reference route: the residual game's
        even-minimum cycle and its lasso; every witness of either replays."""
        positives = negatives = 0
        gne_verdicts = set()
        for _, game, profile in random_questions(21, 40):
            for p in game.players:
                di = game.players.index(p)
                for t in game.topologies:
                    ok, witness = can_deviator_win_set(game, profile, p, frozenset({t}))
                    want, ref_witness = reference_single_target(game, profile, p, t)
                    assert ok == want, (p, t)
                    for strat in (witness, ref_witness) if ok else ():
                        assert t in wintop(game, profile.substitute(di, strat), p)
                    positives += ok
                    negatives += not ok
            gne = check_gne(game, profile)
            gne_verdicts.add(gne.verdict)
            assert gne.verdict == all(check_ne(game, t, profile).verdict
                                      for t in game.topologies)
        assert positives and negatives and gne_verdicts == {True, False}

    def test_checks_build_one_knowledge_arena_per_question(self, monkeypatch):
        """Every question a check asks, one target or several, is decided on
        its knowledge arena, reached through the unchecked helpers."""
        built, solved = [], []
        real_build, real_solve = equilibria._knowledge_arena, equilibria._solve_conjunction

        def build(game, profile, deviator, targets):
            built.append((deviator, targets))
            return real_build(game, profile, deviator, targets)

        def solve(arena):
            solved.append(arena)
            return real_solve(arena)

        monkeypatch.setattr(equilibria, "_knowledge_arena", build)
        monkeypatch.setattr(equilibria, "_solve_conjunction", solve)
        sizes = set()
        for _, game, profile in random_questions(21, 30):
            for check in (check_gne, check_cne):
                built.clear()
                solved.clear()
                report = check(game, profile)
                asked = list(deviation_questions(game, report.kind, report.wintop))
                if report.witness is not None:
                    w = report.witness
                    asked = asked[:asked.index((w.player, w.targets)) + 1]
                assert built == asked
                assert len(solved) == len(built)
                sizes.update(len(ts) for _, ts in built)
        assert 1 in sizes and max(sizes) >= 2

    def test_antitone_in_targets(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        for p in router.players:
            pair_ok, _ = can_deviator_win_set(router, profile, p, frozenset({"A", "B"}))
            single_ok = all(can_deviator_win_set(router, profile, p, frozenset({t}))[0]
                            for t in router.topologies)
            if pair_ok:
                assert single_ok

    def test_antitone_in_targets_random_games(self):
        rng = random.Random(77)
        flips = 0
        for _ in range(15):
            game = random_mtg(rng, n_players=2, n_states=3, n_topologies=2)
            profile = Profile((constant_strategy(game, game.actions[0]),
                               constant_strategy(game, game.actions[-1])))
            for p in game.players:
                full_ok, _ = can_deviator_win_set(game, profile, p,
                                                  frozenset(game.topologies))
                for t in game.topologies:
                    ok, _ = can_deviator_win_set(game, profile, p, frozenset({t}))
                    if full_ok:
                        assert ok, "larger target set flipped false to true"
                    if full_ok != ok:
                        flips += 1
        assert flips > 0, "sample never separated the target sets"

    def test_fig3_cannot_win_both(self, fig3):
        profile = Profile((constant_strategy(fig3, "1"),))
        ok, _ = can_deviator_win_set(fig3, profile, "solo", frozenset({"t1", "t2"}))
        assert not ok
        for t in fig3.topologies:
            ok, witness = can_deviator_win_set(fig3, profile, "solo", frozenset({t}))
            assert ok
            assert wintop(fig3, Profile((witness,)), "solo") >= {t}


class TestCheckNe:
    def test_xor_has_no_equilibrium_in_either_topology(self, xor):
        profile = Profile((constant_strategy(xor, "0"), constant_strategy(xor, "0")))
        for t in xor.topologies:
            report = check_ne(xor, t, profile)
            assert not report.verdict
            assert report.witness is not None
            loser = report.witness.player
            sub = profile.substitute(xor.players.index(loser), report.witness.strategy)
            assert t in wintop(xor, sub, loser)

    def test_vacuous_when_everyone_wins(self, router, turn_taking):
        assert check_ne(router, "A", turn_taking).verdict

    def test_unknown_topology_rejected(self, router, turn_taking):
        with pytest.raises(InputError, match="unknown topology 'C'"):
            check_ne(router, "C", turn_taking)

    def test_single_player_winner(self, fig3):
        single = Mtg(players=fig3.players, states=fig3.states, initial=fig3.initial,
                     actions=fig3.actions, topologies=("t1",),
                     transition={k: v for k, v in fig3.transition.items() if k[0] == "t1"},
                     priority={k: v for k, v in fig3.priority.items() if k[0] == "t1"})
        assert check_ne(single, "t1", Profile((constant_strategy(single, "1"),))).verdict

    def test_oracle_changes_no_report(self):
        """Through an oracle that the GNE and CNE checks filled first, as without one."""
        def summary(report, game):
            w = report.witness
            return (report.verdict, report.wintop, report.topology,
                    None if w is None else (w.player, w.targets, w.strategy.encoding(game)))
        refuted = 0
        for _, game, profile in random_questions(11, 30):
            oracle = DeviationOracle(game)
            check_gne(game, profile, oracle=oracle)
            check_cne(game, profile, oracle=oracle)
            for t in game.topologies:
                got = check_ne(game, t, profile, oracle=oracle)
                assert summary(got, game) == summary(check_ne(game, t, profile), game)
                refuted += not got.verdict
        assert refuted > 0

    def test_asks_nothing_after_a_true_gne_check(self, monkeypatch):
        calls = []
        real = equilibria._can_win_set

        def spy(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(equilibria, "_can_win_set", spy)
        shared = 0
        for _, game, profile in random_questions(5, 40):
            oracle = DeviationOracle(game)
            if not check_gne(game, profile, oracle=oracle).verdict:
                continue
            calls.clear()
            for t in game.topologies:
                assert check_ne(game, t, profile, oracle=oracle).verdict
            assert calls == []
            for t in game.topologies:
                check_ne(game, t, profile)
            shared += len(calls)
        assert shared > 0  # without the oracle the same checks do ask


class TestCheckGne:
    def test_turn_taking_is_greedy_stable(self, router, turn_taking):
        assert check_gne(router, turn_taking).verdict

    def test_fig3_never_greedy_stable(self, fig3):
        for strat in enumerate_strategies(fig3, 1):
            report = check_gne(fig3, Profile((strat,)))
            assert not report.verdict
            assert report.witness is not None
            w = report.witness
            sub = Profile((w.strategy,))
            assert w.targets <= wintop(fig3, sub, "solo")
            assert not (w.targets <= report.wintop["solo"])

    def test_xor_never_greedy_stable(self, xor):
        profile = Profile((constant_strategy(xor, "1"), constant_strategy(xor, "0")))
        assert not check_gne(xor, profile).verdict


class TestCheckCne:
    def test_fig3_every_strategy_conservative(self, fig3):
        for strat in enumerate_strategies(fig3, 1):
            assert check_cne(fig3, Profile((strat,))).verdict

    def test_xor_every_memoryless_profile_conservative(self, xor):
        oracle = DeviationOracle(xor)
        for blue in enumerate_strategies(xor, 1):
            for red in enumerate_strategies(xor, 1):
                assert check_cne(xor, Profile((blue, red)), oracle=oracle).verdict

    def test_turn_taking_no_strict_superset_exists(self, router, turn_taking):
        report = check_cne(router, turn_taking)
        assert report.verdict
        assert report.wintop == {"blue": {"A", "B"}, "red": {"A", "B"}}

    def test_multi_target_refutation_keeps_the_recursion_limit(self):
        game, profile = multi_target_refutation()
        before = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            report = check_cne(game, profile)
            assert len(report.witness.targets) == 2
            assert sys.getrecursionlimit() == 1000
        finally:
            sys.setrecursionlimit(before)
        src = Path(equilibria.__file__).parent
        assert not [p.name for p in src.glob("*.py") if "setrecursionlimit" in p.read_text()]

    def test_multi_target_witness_does_not_depend_on_the_hash_seed(self):
        script = ("from test_equilibria import multi_target_refutation\n"
                  "from mtgames.equilibria import check_cne\n"
                  "game, profile = multi_target_refutation()\n"
                  "print(check_cne(game, profile).witness.strategy.encoding(game))\n")
        paths = [str(Path(equilibria.__file__).resolve().parents[1]), str(Path(__file__).parent)]
        outs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(paths + [os.environ.get("PYTHONPATH", "")]))
            run = subprocess.run([sys.executable, "-c", script], env=env,
                                 capture_output=True, text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            outs.append(run.stdout)
        assert outs[0] == outs[1] and outs[0].strip()


class TestBruteForceAgreement:
    def test_found_deviations_refute_the_checks(self):
        """A bounded brute-force scan finding a beneficial deviation must be
        mirrored by a False verdict of the corresponding check."""
        rng = random.Random(55)
        gne_refuted = cne_refuted = 0
        for _ in range(30):
            game = random_mtg(rng, n_players=rng.randint(1, 2),
                              n_states=rng.randint(2, 4), n_topologies=2)
            memoryless = list(enumerate_strategies(game, 1))
            profile = Profile(tuple(rng.choice(memoryless) for _ in game.players))
            oracle = DeviationOracle(game)
            gne = check_gne(game, profile, oracle=oracle)
            cne = check_cne(game, profile, oracle=oracle)
            for p in game.players:
                w = wintop(game, profile, p)
                losing = [t for t in game.topologies if t not in w]
                # GNE: some deviation wins a topology p loses now
                if any(brute_force_deviation(game, profile, p, frozenset({t}), 2)[0]
                       for t in losing):
                    assert not gne.verdict
                    gne_refuted += 1
                # CNE: some deviation wins all of w and one more topology
                if any(brute_force_deviation(game, profile, p, w | {t}, 2)[0] for t in losing):
                    assert not cne.verdict
                    cne_refuted += 1
        assert gne_refuted > 0 and cne_refuted > 0

    def test_brute_force_finds_no_deviation_beyond_every_strategy(self, fig3):
        profile = Profile((constant_strategy(fig3, "1"),))
        strat = brute_force_deviation(fig3, profile, "solo", frozenset({"t2"}), 1)[1]
        assert wintop(fig3, Profile((strat,)), "solo") >= {"t2"}
        # no strategy of any memory wins both topologies
        assert brute_force_deviation(fig3, profile, "solo", frozenset({"t1", "t2"}),
                                     2) == (False, None)

    def test_scan_returns_the_first_winning_deviation(self):
        """The oracle's answer and witness are the first strategy, in enumeration
        order, whose lasso-path winning set covers the targets."""
        rng = random.Random(32)
        answers = set()
        for _ in range(12):
            game = random_mtg(rng, n_players=rng.randint(1, 3), n_states=rng.randint(2, 3),
                              n_topologies=rng.randint(2, 3), max_priority=rng.randint(2, 5))
            profile = random_profile(rng, game, 2)
            p = rng.choice(game.players)
            di = game.players.index(p)
            targets = frozenset(rng.sample(game.topologies, rng.randint(1, 2)))
            for bound in (1, 2):
                want = next(((True, s) for s in enumerate_strategies(game, bound)
                             if targets <= wintop(game, profile.substitute(di, s), p)),
                            (False, None))
                assert brute_force_deviation(game, profile, p, targets, bound) == want
                answers.add((len(game.players), bound, want[0]))
        # hits and misses, at both bounds, with one to three players
        assert {ok for _, _, ok in answers} == {True, False}
        assert {(n, bound) for n, bound, _ in answers} >= {(n, b) for n in (1, 2, 3)
                                                           for b in (1, 2)}

    def test_scan_stops_in_the_first_range_that_hits(self, router, turn_taking, monkeypatch):
        calls = []
        sweep = oracles._kernels.sweep_block

        def spy(*args, **kwargs):
            calls.append(args[5:7])  # (lo, hi)
            return sweep(*args, **kwargs)
        monkeypatch.setattr(oracles._kernels, "sweep_block", spy)
        ok, strat = brute_force_deviation(router, turn_taking, "blue", frozenset({"A", "B"}), 2)
        # a memoryless deviation wins both: the 4,096 memory-2 strategies are never swept
        assert ok and len(strat.memory) == 1
        assert calls == [(0, 8)]

    def test_empty_target_set_is_refused(self, router, turn_taking):
        # as the exact checker refuses it, rather than winning it vacuously
        with pytest.raises(InputError, match="target topology set must be nonempty"):
            brute_force_deviation(router, turn_taking, "blue", frozenset(), 2)


class TestOracleCache:
    def test_cache_is_keyed_on_co_strategies(self, router):
        oracle = DeviationOracle(router)
        red = constant_strategy(router, "1")
        p1 = Profile((constant_strategy(router, "0"), red))
        p2 = Profile((constant_strategy(router, "1"), red))
        oracle.can_win(p1, "blue", frozenset({"A"}))
        n_after_first = len(oracle._cache)
        oracle.can_win(p2, "blue", frozenset({"A"}))
        assert len(oracle._cache) == n_after_first

    @pytest.mark.parametrize("defect", ["missing update cell", "unknown action"])
    def test_malformed_co_strategy_is_an_input_error(self, xor, defect):
        red = constant_strategy(xor, "0")
        update, act = dict(red.update), dict(red.act)
        if defect == "missing update cell":
            del update[("m0", "s0")]
        else:
            act[("m0", "s0")] = "zz"
        profile = Profile((constant_strategy(xor, "0"), replace(red, update=update, act=act)))
        for ask in (DeviationOracle(xor).can_win,
                    lambda *args: can_deviator_win_set(xor, *args)):
            with pytest.raises(InputError, match="profile.red"):
                ask(profile, "blue", frozenset({"t1"}))

    def test_unknown_deviator_is_an_input_error(self, router, turn_taking):
        targets = frozenset({"A"})
        for ask in (DeviationOracle(router).can_win,
                    lambda *args: can_deviator_win_set(router, *args)):
            with pytest.raises(InputError, match="unknown player 'nobody'"):
                ask(turn_taking, "nobody", targets)
