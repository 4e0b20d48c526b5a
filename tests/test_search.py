import random

import pytest

from mtgames.core import InputError
from mtgames.equilibria import check_cne, check_gne
from mtgames.generate import random_mtg
from mtgames.search import find_cne, find_gne, find_profile_with_wintop
from mtgames.strategy import wintop


class TestFindGne:
    def test_router_has_a_greedy_equilibrium(self, router):
        result = find_gne(router, 4)
        assert result.status == "found"
        assert result.report.verdict
        # independent re-verification of the returned profile
        assert check_gne(router, result.profile).verdict

    def test_fig3_exhausts_without_finding(self, fig3):
        result = find_gne(fig3, 3)
        assert result.status == "exhausted-space"
        assert result.profile is None
        assert "not a proof" in result.note

    def test_single_topology_collapse_finds_equilibrium(self, fig3):
        from mtgames.core import Mtg
        single = Mtg(players=fig3.players, states=fig3.states, initial=fig3.initial,
                     actions=fig3.actions, topologies=("t1",),
                     transition={k: v for k, v in fig3.transition.items() if k[0] == "t1"},
                     priority={k: v for k, v in fig3.priority.items() if k[0] == "t1"})
        result = find_gne(single, 1)
        assert result.status == "found"

    def test_bad_bound_rejected(self, fig3):
        with pytest.raises(InputError):
            find_gne(fig3, 0)
        with pytest.raises(InputError):
            find_gne(fig3, 1, jobs=0)


class TestFindCne:
    def test_fig3_memoryless_profile_found(self, fig3):
        result = find_cne(fig3, 1)
        assert result.status == "found"
        assert result.examined == 1
        assert check_cne(fig3, result.profile).verdict

    def test_xor_memoryless_profile_found(self, xor):
        result = find_cne(xor, 1)
        assert result.status == "found"
        assert check_cne(xor, result.profile).verdict

    def test_router_found(self, router):
        result = find_cne(router, 2)
        assert result.status == "found"
        assert check_cne(router, result.profile).verdict


class TestFindTarget:
    def test_router_full_symmetric_targets(self, router):
        targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
        result = find_profile_with_wintop(router, targets, 2)
        assert result.status == "found"
        for p in router.players:
            assert wintop(router, result.profile, p) == targets[p]

    def test_fig3_both_topologies_unachievable(self, fig3):
        targets = {"solo": frozenset({"t1", "t2"})}
        result = find_profile_with_wintop(fig3, targets, 3)
        assert result.status == "exhausted-space"

    def test_existing_profile_is_reachable_as_target(self, router, turn_taking):
        targets = {p: wintop(router, turn_taking, p) for p in router.players}
        result = find_profile_with_wintop(router, targets, 2)
        assert result.status == "found"

    def test_missing_player_rejected(self, router):
        with pytest.raises(InputError):
            find_profile_with_wintop(router, {"blue": frozenset()}, 1)


class TestSearchMechanics:
    def test_budget_aborts_distinctly(self, fig3):
        result = find_gne(fig3, 3, budget=500)
        assert result.status == "budget-exhausted"
        assert result.examined == 500

    def test_budget_before_found_candidate_preempts(self, router):
        full = find_gne(router, 1)
        assert full.status == "found"
        early = find_gne(router, 1, budget=full.examined - 1)
        assert early.status == "budget-exhausted"

    def test_result_independent_of_worker_count(self, router, fig3):
        base = find_gne(router, 2, jobs=1)
        multi = find_gne(router, 2, jobs=4)
        assert base.status == multi.status == "found"
        assert base.profile == multi.profile
        assert base.examined == multi.examined
        assert find_gne(fig3, 2, jobs=1).examined == find_gne(fig3, 2, jobs=4).examined

    def test_monotone_in_memory_bound(self, router):
        first = find_gne(router, 1)
        assert first.status == "found"
        for bound in (2, 3):
            again = find_gne(router, bound)
            assert again.status == "found"
            # candidate order is graded by memory, so the same profile wins
            assert again.profile == first.profile

    def test_random_two_player_searches_reverify(self):
        rng = random.Random(33)
        found = 0
        for _ in range(12):
            game = random_mtg(rng, n_players=2, n_states=2, n_topologies=2)
            result = find_gne(game, 1, budget=5000)
            if result.status == "found":
                found += 1
                assert check_gne(game, result.profile).verdict
            result = find_cne(game, 1, budget=5000)
            if result.status == "found":
                assert check_cne(game, result.profile).verdict
        assert found > 0
