import random

import pytest

from mtgames import equilibria
from mtgames.arena import SEEKER, SPOILER
from mtgames.core import InputError, Mtg
from mtgames.equilibria import (DeviationOracle, KnowledgeNode, build_knowledge_arena,
                                can_deviator_win_set, check_cne, check_gne, check_ne,
                                knowledge_active_mask)
from mtgames.generate import random_mtg, random_strategy
from mtgames.solvers import solve_conjunction
from mtgames.strategy import Profile, constant_strategy, enumerate_strategies, wintop


def knowledge_nodes(arena):
    return [n for n in arena.nodes if isinstance(n, KnowledgeNode)]


class TestBuildKnowledgeArena:
    def test_router_blue_deviation_against_stubborn_red(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        arena = build_knowledge_arena(router, profile, "blue", frozenset({"A"}))
        init = arena.nodes[arena.initial]
        assert init.state == "ready"
        assert init.consistent == {"A", "B"}
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
        arena = build_knowledge_arena(xor, profile, "blue", frozenset({"t1"}))
        assert all(n.consistent == {"t1", "t2"} for n in knowledge_nodes(arena))

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
        with pytest.raises(InputError):
            build_knowledge_arena(router, turn_taking, "blue", frozenset())


class TestCanDeviatorWinSet:
    def test_router_stubborn_red_results(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "1")))
        ok_a, _ = can_deviator_win_set(router, profile, "blue", frozenset({"A"}))
        ok_b, witness_b = can_deviator_win_set(router, profile, "blue", frozenset({"B"}))
        assert ok_a and not ok_b and witness_b is None

    def test_singleton_equals_residual_route(self, monkeypatch):
        """Singletons take the residual route; the knowledge arena must agree on them."""
        rng = random.Random(21)
        knowledge_targets = []
        real_build = equilibria.build_knowledge_arena

        def spy(game, profile, deviator, targets):
            knowledge_targets.append(frozenset(targets))
            return real_build(game, profile, deviator, targets)

        positives = negatives = 0
        gne_verdicts = set()
        for _ in range(30):
            game = random_mtg(rng, n_players=rng.randint(2, 3), n_states=rng.randint(2, 4),
                              n_topologies=rng.randint(2, 3))
            profile = Profile(tuple(random_strategy(rng, game, rng.randint(1, 3))
                                    for _ in game.players))
            for p in game.players:
                for t in game.topologies:
                    ok, _ = can_deviator_win_set(game, profile, p, frozenset({t}))
                    arena = build_knowledge_arena(game, profile, p, frozenset({t}))
                    want = solve_conjunction(arena, knowledge_active_mask(arena, [t])).winner
                    assert ok == want, (p, t)
                    positives += ok
                    negatives += not ok
            monkeypatch.setattr(equilibria, "build_knowledge_arena", spy)
            gne = check_gne(game, profile)
            gne_verdicts.add(gne.verdict)
            assert not knowledge_targets, "check_gne built a knowledge arena"
            assert gne.verdict == all(check_ne(game, t, profile).verdict
                                      for t in game.topologies)
            check_cne(game, profile)
            assert all(len(ts) >= 2 for ts in knowledge_targets), \
                "check_cne built a knowledge arena for a singleton"
            monkeypatch.undo()
            knowledge_targets.clear()
        assert positives and negatives and gne_verdicts == {True, False}

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

    def test_single_player_winner(self, fig3):
        single = Mtg(players=fig3.players, states=fig3.states, initial=fig3.initial,
                     actions=fig3.actions, topologies=("t1",),
                     transition={k: v for k, v in fig3.transition.items() if k[0] == "t1"},
                     priority={k: v for k, v in fig3.priority.items() if k[0] == "t1"})
        assert check_ne(single, "t1", Profile((constant_strategy(single, "1"),))).verdict


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


class TestBruteForceAgreement:
    def test_found_deviations_refute_the_checks(self):
        """A bounded brute-force scan finding a beneficial deviation must be
        mirrored by a False verdict of the corresponding check."""
        import numpy as np
        from mtgames.oracles import deviator_wintop_masks
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
                w_mask = 0
                w = wintop(game, profile, p)
                for i, t in enumerate(game.topologies):
                    w_mask |= (t in w) << i
                masks = np.concatenate([m for _, _, m in
                                        deviator_wintop_masks(game, profile, p, 2)])
                if bool(np.any(masks & ~w_mask)):
                    assert not gne.verdict
                    gne_refuted += 1
                covers = (masks & w_mask) == w_mask
                if bool(np.any(covers & (masks != w_mask))):
                    assert not cne.verdict
                    cne_refuted += 1
        assert gne_refuted > 0 and cne_refuted > 0


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
