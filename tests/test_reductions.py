import itertools

import pytest

from mtgames.core import InputError
from mtgames.oracles import gamma_sample, omega_rank_agreement
from mtgames.reductions import (START, DeviationChoice, HLasso, build_cne_game,
                                build_gne_game, challenge_sets, gamma_roundtrip,
                                rank_parity, semantic_objective, simulate_h)
from mtgames.strategy import constant_strategy


def all_target_tuples(game):
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(game.topologies, r)
        for r in range(len(game.topologies) + 1)))
    for combo in itertools.product(subsets, repeat=len(game.players)):
        yield {p: frozenset(ts) for p, ts in zip(game.players, combo)}


@pytest.fixture(scope="module")
def router_cne(router):
    targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
    return build_cne_game(router, targets)


@pytest.fixture(scope="module")
def router_gne(router):
    targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
    return build_gne_game(router, targets)


class TestChallengeSets:
    def test_family_size_bound(self, router):
        for targets in all_target_tuples(router):
            _, family = challenge_sets(router, targets)
            assert len(family) <= 2 * len(router.players) * len(router.topologies)

    def test_contains_singletons_and_extensions(self, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset()}
        per_player, family = challenge_sets(router, targets)
        assert frozenset({"A"}) in per_player["blue"]
        assert frozenset({"A", "B"}) in per_player["blue"]
        assert frozenset({"B"}) in per_player["blue"]
        assert frozenset({"A"}) in per_player["red"]


class TestBuildCne:
    def test_rank_cases(self, router):
        targets = {"blue": frozenset({"A"}), "red": frozenset({"A", "B"})}
        h = build_cne_game(router, targets)
        for q in h.states[1:]:
            base = router.priority[(q.t, q.p, q.s)]
            if q.t not in q.T:
                assert h.rank[q] == 1
            elif q.b and q.t in targets[q.p] and targets[q.p] < q.T:
                assert h.rank[q] == 1
            elif q.b and q.t in targets[q.p]:
                assert h.rank[q] == base
            elif targets[q.p] < q.T:
                assert h.rank[q] == base + 1
            else:
                assert h.rank[q] == 0
        assert h.rank[START] == 0

    def test_state_count_bound(self, router):
        n_s, n_p, n_t = 3, 2, 2
        for targets in all_target_tuples(router):
            h = build_cne_game(router, targets)
            _, family = challenge_sets(router, targets)
            assert len(h.states) - 1 <= 2 * n_s * n_p * len(family) * n_t

    def test_commitments_stay_fixed_and_obedience_is_monotone(self, router_cne):
        succ = router_cne.successor_sets()
        for q, targets in succ.items():
            if q == START:
                continue
            for q2 in targets:
                assert (q2.p, q2.T, q2.t) == (q.p, q.T, q.t)
                if not q.b:
                    assert not q2.b

    def test_observations_project_to_game_states(self, router, router_cne):
        for role in ("coalition", "deviator"):
            classes = router_cne.observations[role]
            assert classes[0] == frozenset({START})
            for cls in classes[1:]:
                states = {q.s for q in cls}
                assert len(states) == 1
        # resolver sees everything
        assert all(len(c) == 1 for c in router_cne.observations["resolver"])

    def test_deviation_flips_obedience(self, router, router_cne):
        q = router_cne.transitions[(START, ("blue", frozenset({"A", "B"}), "A"))]
        assert q.b
        q2 = router_cne.transitions[(q, (("0", "0"), "1"))]
        assert not q2.b
        q3 = router_cne.transitions[(q, (("0", "0"), "0"))]
        assert q3.b


class TestBuildGne:
    def test_rank_cases(self, router, router_gne):
        targets = router_gne.targets
        for q in router_gne.states[1:]:
            base = router.priority[(q.t, q.p, q.s)]
            if q.t not in targets[q.p]:
                assert router_gne.rank[q] == base + 1
            elif q.b:
                assert router_gne.rank[q] == base
            else:
                assert router_gne.rank[q] == 0

    def test_rank_case_examples(self, fig3):
        targets = {"solo": frozenset({"t1"})}
        h = build_gne_game(fig3, targets)
        for q in h.states[1:]:
            if q.t == "t2" and q.s == "s1":
                # not an intended topology: complemented objective
                assert h.rank[q] == fig3.priority[("t2", "solo", "s1")] + 1
            if not q.b and q.t == "t1":
                assert h.rank[q] == 0

    def test_reachable_size_is_exactly_the_bound_here(self, router_gne):
        assert len(router_gne.states) - 1 == 2 * 3 * 2 * 2

    def test_state_count_bound_all_tuples(self, fig3):
        for targets in all_target_tuples(fig3):
            h = build_gne_game(fig3, targets)
            assert len(h.states) - 1 <= 2 * 3 * 1 * 2


class TestSemanticObjective:
    def test_resolver_outside_challenge_fails(self, router_cne):
        q = router_cne.transitions[(START, ("blue", frozenset({"A"}), "B"))]
        loop = router_cne.transitions[(q, (("0", "0"), "0"))]
        assert loop.s == "ready"
        lasso = HLasso(prefix=(START,), cycle=(q,))
        assert not semantic_objective(router_cne, lasso)
        assert not rank_parity(router_cne, lasso)

    def test_obeying_win_on_intended_topology(self, router_cne, turn_taking):
        # turn taking realizes the intended sets, so the obeying play satisfies it
        profile = turn_taking
        dev = DeviationChoice(player="blue", strategy=profile.by_player[0],
                              topologies=frozenset({"A"}))
        rho = simulate_h(router_cne, profile, dev, resolved="A")
        assert semantic_objective(router_cne, rho) == rank_parity(router_cne, rho)
        assert semantic_objective(router_cne, rho)

    def test_illegal_lasso_rejected(self, router_cne):
        with pytest.raises(InputError):
            semantic_objective(router_cne, HLasso(prefix=(), cycle=(START,)))

    def test_agrees_with_rank_parity_router(self, router):
        for targets in list(all_target_tuples(router))[:6]:
            for build in (build_cne_game, build_gne_game):
                res = omega_rank_agreement(build(router, targets), cycle_bound=6)
                assert res.checked > 0
                assert res.disagreements == []


class TestGammaRoundtrip:
    def test_obeying_deviator_reproduces_suggested_play(self, router, router_cne,
                                                        turn_taking):
        dev = DeviationChoice(player="red", strategy=turn_taking.by_player[1],
                              topologies=frozenset({"B"}))
        report = gamma_roundtrip(router, router_cne, turn_taking, dev, resolved="B")
        assert report.obey
        assert report.proj_matches_deviated
        assert report.proj_matches_suggested

    def test_immediate_deviation_clears_obedience(self, router, router_cne, turn_taking):
        dev = DeviationChoice(player="blue", strategy=constant_strategy(router, "1"),
                              topologies=frozenset({"A"}))
        report = gamma_roundtrip(router, router_cne, turn_taking, dev, resolved="A")
        assert not report.obey
        assert report.proj_matches_deviated
        rho = simulate_h(router_cne, turn_taking, dev, resolved="A")
        interior = [q for q in rho.prefix if q != START] + list(rho.cycle)
        assert not interior[1].b

    def test_sampled_correspondence_cne_and_gne(self, router, router_cne, router_gne):
        res = gamma_sample(router, router_cne, samples=60, seed=3)
        assert res.mismatches == []
        res = gamma_sample(router, router_gne, samples=60, seed=4)
        assert res.mismatches == []

    def test_invalid_commitment_rejected(self, router, router_cne, turn_taking):
        dev = DeviationChoice(player="blue", strategy=constant_strategy(router, "0"),
                              topologies=frozenset())
        with pytest.raises(InputError):
            gamma_roundtrip(router, router_cne, turn_taking, dev, resolved="A")

    def test_gne_instance_needs_no_resolver(self, router, router_gne, turn_taking):
        dev = DeviationChoice(player="blue", strategy=constant_strategy(router, "1"),
                              topology="B")
        report = gamma_roundtrip(router, router_gne, turn_taking, dev)
        assert report.proj_matches_deviated
