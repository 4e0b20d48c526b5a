import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute import isomorphic_encodings, naive_strategy_space, raw_step_wintop
from mtgames import equilibria, strategy
from mtgames.core import InputError, Lasso, parity_satisfied
from mtgames.generate import random_mtg, random_profile
from mtgames.strategy import (MooreStrategy, Profile, StrategyBlock, constant_strategy,
                              enumerate_strategies, outcome, periodic_strategy,
                              winners, wintop, wintop_map)


class TestOutcome:
    def test_turn_taking_cycles_through_both_sends(self, router, turn_taking):
        lasso = outcome(router, "A", turn_taking)
        assert set(lasso.cycle) == {"ready", "send1", "send2"}
        assert "send1" in lasso.cycle and "send2" in lasso.cycle

    def test_absorbing_initial_fixed_point(self, router):
        profile = Profile((constant_strategy(router, "0"), constant_strategy(router, "0")))
        lasso = outcome(router, "A", profile)
        assert lasso.prefix == () and lasso.cycle == ("ready",)

    def test_fig3_always_one_in_swapped_topology(self, fig3):
        lasso = outcome(fig3, "t2", Profile((constant_strategy(fig3, "1"),)))
        assert lasso.cycle == ("s2",)

    def test_unroll_matches_step_simulation(self, router, turn_taking):
        for t in router.topologies:
            lasso = outcome(router, t, turn_taking)
            horizon = 3 * (len(lasso.prefix) + len(lasso.cycle))
            expected = lasso.unroll(horizon)
            s = router.initial
            mems = [strat.init for strat in turn_taking.by_player]
            got = [s]
            while len(got) < horizon:
                acts = tuple(strat.action(m, s)
                             for strat, m in zip(turn_taking.by_player, mems))
                mems = [strat.advance(m, s)
                        for strat, m in zip(turn_taking.by_player, mems)]
                s = router.transition[(t, s, acts)]
                got.append(s)
            assert got == expected

    def test_invariant_under_unreachable_memory(self, router, turn_taking):
        blue = turn_taking.by_player[0]
        padded = MooreStrategy(
            memory=blue.memory + ("mx",), init=blue.init,
            update={**blue.update, **{("mx", s): "mx" for s in router.states}},
            act={**blue.act, **{("mx", s): "1" for s in router.states}})
        padded_profile = Profile((padded, turn_taking.by_player[1]))
        for t in router.topologies:
            assert outcome(router, t, padded_profile) == outcome(router, t, turn_taking)

    def test_substitution_identity(self, router, turn_taking):
        same = turn_taking.substitute(0, turn_taking.by_player[0])
        for t in router.topologies:
            assert outcome(router, t, same) == outcome(router, t, turn_taking)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_outcome_lassos_are_always_legal_plays(seed):
    from mtgames.core import check_lasso
    rng = random.Random(seed)
    game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(1, 4),
                      n_actions=rng.randint(1, 2), n_topologies=rng.randint(1, 2))
    profile = random_profile(rng, game, memory=3)
    for t in game.topologies:
        lasso = outcome(game, t, profile)
        assert lasso.topology == t
        check_lasso(game, t, lasso)
        bound = len(game.states)
        for strat in profile.by_player:
            bound *= len(strat.memory)
        assert len(lasso.prefix) + len(lasso.cycle) <= bound


class TestWinners:
    def test_turn_taking_wins_for_both(self, router, turn_taking):
        assert winners(router, "A", turn_taking) == {"blue", "red"}

    def test_xor_same_actions(self, xor):
        profile = Profile((constant_strategy(xor, "0"), constant_strategy(xor, "0")))
        assert winners(xor, "t1", profile) == {"blue"}
        assert winners(xor, "t2", profile) == {"red"}


class TestWintop:
    def test_fig3_first_action_decides(self, fig3):
        assert wintop(fig3, Profile((constant_strategy(fig3, "1"),)), "solo") == {"t1"}
        assert wintop(fig3, Profile((constant_strategy(fig3, "2"),)), "solo") == {"t2"}

    def test_turn_taking_wins_everywhere(self, router, turn_taking):
        assert wintop(router, turn_taking, "blue") == {"A", "B"}
        assert wintop(router, turn_taking, "red") == {"A", "B"}
        assert wintop_map(router, turn_taking) == {"blue": {"A", "B"}, "red": {"A", "B"}}

    def test_unknown_player(self, router, turn_taking):
        with pytest.raises(InputError):
            wintop(router, turn_taking, "green")

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_raw_step_simulation(self, seed):
        rng = random.Random(seed)
        game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(2, 4))
        profile = random_profile(rng, game, memory=2)
        for p in game.players:
            assert wintop(game, profile, p) == raw_step_wintop(game, profile, p)


class TestWintopMap:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 100_000))
    def test_agrees_with_raw_step_simulation(self, seed):
        rng = random.Random(seed)
        game = random_mtg(rng, n_players=rng.randint(1, 3), n_states=rng.randint(1, 4),
                          n_topologies=rng.randint(1, 3), max_priority=4)
        profile = random_profile(rng, game, memory=rng.randint(1, 3))
        assert wintop_map(game, profile) == {p: raw_step_wintop(game, profile, p)
                                             for p in game.players}

    @pytest.mark.parametrize("seed", range(12))
    def test_one_outcome_per_topology_per_check(self, monkeypatch, seed):
        rng = random.Random(seed)
        game = random_mtg(rng, n_players=2, n_states=rng.randint(2, 4),
                          n_topologies=rng.randint(1, 3))
        profile = random_profile(rng, game, memory=2)
        real = strategy.outcome
        calls = []

        def spy(game, topology, prof):
            calls.append((topology, prof))
            return real(game, topology, prof)

        monkeypatch.setattr(strategy, "outcome", spy)
        checks = [lambda: equilibria.check_gne(game, profile),
                  lambda: equilibria.check_cne(game, profile)]
        checks += [lambda t=t: equilibria.check_ne(game, t, profile) for t in game.topologies]
        for check in checks:
            calls.clear()
            report = check()
            own = [t for t, prof in calls if prof == profile]
            assert own == list(game.topologies)
            # a negative verdict's witness is still replayed
            assert report.verdict or len(calls) > len(own)
            # every other simulation replays a witness: the profile with one
            # player's strategy replaced
            for _, prof in calls:
                if prof != profile:
                    changed = [a != b for a, b in zip(prof.by_player, profile.by_player)]
                    assert sum(changed) == 1


class TestParityFromOutside:
    def test_illegal_edge_rejected(self, fig3):
        # s2 is a sink in both topologies, so s2 -> s1 is no play
        with pytest.raises(InputError, match="not realizable"):
            parity_satisfied(fig3, "t1", "solo", Lasso(prefix=("s0",), cycle=("s2", "s1")))

    def test_outcome_lasso_agrees_with_winners(self, xor):
        profile = Profile((constant_strategy(xor, "0"), constant_strategy(xor, "0")))
        for t in xor.topologies:
            lasso = outcome(xor, t, profile)
            won = winners(xor, t, profile)
            assert {p for p in xor.players if parity_satisfied(xor, t, p, lasso)} == won


class TestEnumerate:
    def test_single_action_single_memory(self, fig3):
        game = random_mtg(random.Random(0), n_players=1, n_states=3, n_actions=1)
        strategies = list(enumerate_strategies(game, 1))
        assert len(strategies) == 1

    def test_memoryless_count_is_action_table_count(self, fig3):
        strategies = list(enumerate_strategies(fig3, 1))
        assert len(strategies) == 2 ** 3

    def test_bound_two_matches_naive_enumeration_with_isomorphism_filter(self):
        game = random_mtg(random.Random(1), n_players=1, n_states=2, n_actions=2)
        total = 0
        for m in (1, 2):
            space = naive_strategy_space(game, m)
            canonical = {min(isomorphic_encodings(enc, m, 2) | {enc}) for enc in space}
            total += len(canonical)
        assert len(list(enumerate_strategies(game, 2))) == total

    def test_three_memory_dedup_matches_naive(self):
        # 1 state keeps the naive space small while exercising real renaming
        game = random_mtg(random.Random(2), n_players=1, n_states=1, n_actions=2)
        space = naive_strategy_space(game, 3)
        canonical = {min(isomorphic_encodings(enc, 3, 1) | {enc}) for enc in space}
        block = StrategyBlock(game, 3)
        assert block.count_canonical() == len(canonical)

    def test_order_is_memory_then_lexicographic(self, fig3):
        strategies = list(enumerate_strategies(fig3, 2))
        sizes = [len(s.memory) for s in strategies]
        assert sizes == sorted(sizes)
        first = strategies[0]
        assert all(a == fig3.actions[0] for a in first.act.values())

    def test_rejects_bad_bound(self, fig3):
        with pytest.raises(InputError):
            list(enumerate_strategies(fig3, 0))

    def test_yielded_strategies_are_canonical_and_distinct(self, fig3):
        seen = set()
        for strat in enumerate_strategies(fig3, 2):
            strat.check(fig3)
            key = strat.encoding(fig3)
            iso = isomorphic_encodings((key[2], key[3]), len(strat.memory),
                                       len(fig3.states))
            assert key[2:] == min(iso | {key[2:]})
            assert key not in seen
            seen.add(key)


class TestPeriodic:
    def test_periodic_strategy_cycles(self, router):
        strat = periodic_strategy(router, ["0", "0", "1", "1"])
        mem = strat.init
        emitted = []
        for _ in range(8):
            emitted.append(strat.action(mem, "ready"))
            mem = strat.advance(mem, "ready")
        assert emitted == ["0", "0", "1", "1", "0", "0", "1", "1"]
