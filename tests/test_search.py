import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mtgames import io, search
from mtgames.core import InputError, Mtg
from mtgames.equilibria import check_cne, check_gne
from mtgames.generate import random_mtg, random_profile
from mtgames.oracles import compare_deviation_checker
from mtgames.search import find_cne, find_gne, find_profile_with_wintop
from mtgames.strategy import StrategyBlock, wintop, wintop_map


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
        with pytest.raises(InputError, match="budget must be >= 1, got 0"):
            find_gne(fig3, 1, budget=0)

    def test_jobs_must_be_one(self, fig3, router):
        targets = io.load_targets(io.data_path("router-all.tt"), router)
        for search_with_jobs in (lambda: find_gne(fig3, 1, jobs=2),
                                 lambda: find_cne(fig3, 1, jobs=2),
                                 lambda: find_profile_with_wintop(router, targets, 1, jobs=2)):
            with pytest.raises(InputError, match="^jobs must be 1, got 2"):
                search_with_jobs()

    def test_searches_load_no_thread_pool(self):
        src = str(Path(search.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
            src, os.environ.get("PYTHONPATH")])))
        script = "import sys, mtgames.search; print('concurrent.futures' in sys.modules)"
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120)
        assert run.returncode == 0, run.stderr
        assert run.stdout == "False\n"


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

    def test_unknown_topology_rejected(self, fig3):
        with pytest.raises(InputError, match="t9"):
            find_profile_with_wintop(fig3, {"solo": frozenset({"t9"})}, 1)

    def test_unknown_player_rejected(self, fig3):
        targets = {"solo": frozenset({"t1"}), "ghost": frozenset()}
        with pytest.raises(InputError, match="ghost"):
            find_profile_with_wintop(fig3, targets, 1)


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

    def test_pinned_statuses_and_counts(self, router, fig3):
        found = find_gne(router, 2)
        assert (found.status, found.examined) == ("found", 37)
        assert check_gne(router, found.profile).verdict
        assert find_gne(fig3, 2).examined == 4104
        spent = find_gne(fig3, 3, budget=500)
        assert (spent.status, spent.examined, spent.profile) == ("budget-exhausted", 500, None)

    def test_early_stop_simulates_one_chunk(self, router, monkeypatch):
        started = []
        masks = search._wintop_masks

        def spy(*args):
            started.append(1)
            return masks(*args)
        monkeypatch.setattr(search, "_wintop_masks", spy)
        result = find_gne(router, 2)
        assert result.status == "found" and result.examined <= 64  # the (1, 1) chunk
        assert len(started) == 1

    def test_budget_bounds_the_rows_simulated(self, monkeypatch):
        # a 3-state, 4-topology game whose GNE screen admits about a tenth of
        # the rows of each chunk it screens
        rng = random.Random(145)
        n_states, n_top, max_priority = rng.randint(2, 3), rng.randint(2, 4), rng.randint(2, 6)
        game = random_mtg(rng, n_players=2, n_states=n_states, n_topologies=n_top,
                          max_priority=max_priority)
        simulated, admitted = [], []
        simulate, admit = search._kernels.simulate_min_even, search._admitted

        def spy(*args, rows):
            simulated.append(len(rows[0]))
            return simulate(*args, rows=rows)

        def admit_spy(*args):
            ok = admit(*args)
            admitted.append(int(ok.sum()))
            return ok
        monkeypatch.setattr(search._kernels, "simulate_min_even", spy)
        monkeypatch.setattr(search, "_admitted", admit_spy)
        result = find_gne(game, 2, budget=100000)
        assert result.status == "budget-exhausted" and result.examined == 100000
        # the budget ends 34,400 rows into the (2, 2) tile of 131,044 rows: of
        # its 11,520 admitted rows only the 3,840 before the budget are simulated
        assert admitted[-1] == 11520 and simulated[-1] == 3840
        assert len(simulated) > 1 and sum(simulated) == 64 + sum(admitted) - 11520 + 3840

    def test_xor_screen_admits_no_row(self, xor, monkeypatch):
        simulated = []
        simulate = search._kernels.simulate_min_even

        def spy(*args, rows):
            simulated.append(len(rows[0]))
            return simulate(*args, rows=rows)
        monkeypatch.setattr(search._kernels, "simulate_min_even", spy)
        result = find_gne(xor, 2, budget=150000)
        assert (result.status, result.examined) == ("budget-exhausted", 150000)
        # only the 64 rows of the memoryless size vector, under the screen's
        # break-even, are simulated; the screen admits none of the others
        assert simulated == [64]
        monkeypatch.setattr(search, "_SCREEN_ROWS", 0)
        simulated.clear()
        assert find_gne(xor, 2, budget=150000).examined == 150000
        assert simulated == []

    def test_budget_bounds_the_rows_swept(self, monkeypatch):
        simulated = []
        simulate = search._kernels.simulate_min_even

        def spy(*args, rows):
            simulated.append(len(rows[0][0]))  # the one player's (update, act) rows
            return simulate(*args, rows=rows)
        monkeypatch.setattr(search._kernels, "simulate_min_even", spy)
        # the stable set {t1, t2, t3} can be won, but not within memory 2
        result = find_gne(_rotation_game(3), 2, budget=5000)
        assert result.status == "budget-exhausted" and result.examined == 5000
        # memory 1's 81 kept rows in full, then the first 4,919 kept rows of
        # memory 2: no row past the budget
        assert simulated[0] == 81 and sum(simulated) == 5000

    def test_unwinnable_allowed_sets_simulate_nothing(self, fig3, monkeypatch):
        called = []

        def spy(*args, **kwargs):
            called.append(1)
        monkeypatch.setattr(search._kernels, "sweep_block", spy)
        monkeypatch.setattr(search._kernels, "simulate_min_even", spy)
        total = 5043816
        both = {"solo": frozenset({"t1", "t2"})}  # the only stable set, which no strategy wins
        for budget, want in ((None, ("exhausted-space", total)), (500, ("budget-exhausted", 500)),
                             (total, ("budget-exhausted", total)),
                             (total + 1, ("exhausted-space", total))):
            for result in (find_gne(fig3, 3, budget=budget),
                           find_profile_with_wintop(fig3, both, 3, budget=budget)):
                assert (result.status, result.examined, result.profile) == (*want, None)
        assert not called

    def test_monotone_in_memory_bound(self, router):
        first = find_gne(router, 1)
        assert first.status == "found"
        for bound in (2, 3):
            again = find_gne(router, bound)
            assert again.status == "found"
            # candidate order is graded by memory, so the same profile wins
            assert again.profile == first.profile

    def test_more_than_63_topologies_are_refused(self):
        # topology sets are int64 bitmasks: bit 63 and above would wrap
        game = random_mtg(random.Random(5), n_players=2, n_states=2, n_actions=2,
                          n_topologies=80, max_priority=3)
        profile = random_profile(random.Random(1), game, 1)
        late = {"p0": frozenset({"t63", "t70"}), "p1": frozenset()}
        for run in (lambda: find_cne(game, 1), lambda: find_gne(game, 1, budget=10),
                    lambda: find_profile_with_wintop(game, late, 1),
                    lambda: compare_deviation_checker(game, profile, "p0",
                                                      frozenset({"t70"}), 1)):
            with pytest.raises(InputError, match="the game has 80 topologies; searches and "
                                                 "the deviation oracle handle at most 63"):
                run()

    def test_63_topologies_still_search(self):
        game = random_mtg(random.Random(3), n_players=2, n_states=2, n_actions=2,
                          n_topologies=63, max_priority=3)
        result = find_cne(game, 1)
        assert result.status == "found"
        assert (result.status, result.examined, result.profile) == _reference_scan(game, "cne", 1)
        targets = wintop_map(game, random_profile(random.Random(2), game, 1))
        assert "t62" in targets["p0"] | targets["p1"]
        result = find_profile_with_wintop(game, targets, 1)
        assert result.status == "found" and wintop_map(game, result.profile) == targets

    def test_one_player_searches_ask_few_questions_at_63_topologies(self, monkeypatch):
        asked = []
        ask = search.DeviationOracle._ask

        def spy(oracle, profile, deviator, targets):
            asked.append(targets)
            return ask(oracle, profile, deviator, targets)
        monkeypatch.setattr(search.DeviationOracle, "_ask", spy)
        game = random_mtg(random.Random(1), n_players=1, n_states=2, n_actions=2,
                          n_topologies=63, max_priority=3)
        n_top = len(game.topologies)
        for budget in (None, 2):
            asked.clear()
            result = find_gne(game, 1, budget=budget)
            assert result.status == ("exhausted-space" if budget is None else "budget-exhausted")
            # T singletons, then the set of them all
            assert 0 < len(set(asked)) <= n_top + 1
            asked.clear()
            result = find_cne(game, 1, budget=budget)
            assert (result.status, result.examined, result.profile) == \
                _reference_scan(game, "cne", 1, budget=budget)
            # no more than one question per topology outside each distinct winning set
            # that the searched rows have
            wins = {wintop_map(game, search._materialize(game, chunk, b))["p0"]
                    for chunk in search._candidate_chunks(game, 1) for b in range(chunk.batch)}
            assert 0 < len(set(asked)) <= sum(n_top - len(w) for w in wins)

    def test_cne_prefilter_simulates_one_tile_per_chunk_and_player(self, monkeypatch):
        monkeypatch.setattr(search, "CHUNK_CAP", 64)  # eight strategies per player a tile
        # (chunk, player, kernel rows of each call) per prefilter call; keeping
        # the chunks alive keeps their ids distinct
        calls = []
        simulated = []
        simulate = search._kernels.simulate_min_even
        improvable = search._memoryless_improvable

        def kernel_spy(*args, rows):
            simulated.append(len(rows[0]))
            return simulate(*args, rows=rows)

        def prefilter_spy(idx_game, chunk, rows, player, *rest):
            simulated.clear()
            out = improvable(idx_game, chunk, rows, player, *rest)
            calls.append((chunk, player, list(simulated)))
            return out
        monkeypatch.setattr(search._kernels, "simulate_min_even", kernel_spy)
        monkeypatch.setattr(search, "_memoryless_improvable", prefilter_spy)
        # eight memoryless strategies per player, one tile side
        game = random_mtg(random.Random(19), 2, 3, 2, 3, 4)
        result = find_cne(game, 2, budget=600)
        assert (result.status, result.examined, result.profile) == \
            _reference_scan(game, "cne", 2, budget=600)
        asked = [(id(chunk), player) for chunk, player, _ in calls]
        assert len(set(asked)) == len(asked) and len({chunk for chunk, _ in asked}) > 4
        assert all(len(rows) == 1 and rows[0] <= 64 for _, _, rows in calls)

    @pytest.mark.parametrize("n_states, runs", [(8, True), (9, False)])
    def test_cne_prefilter_runs_up_to_one_tile_side(self, n_states, runs, monkeypatch):
        called = []
        improvable = search._memoryless_improvable

        def spy(*args):
            called.append(1)
            return improvable(*args)
        monkeypatch.setattr(search, "_memoryless_improvable", spy)
        # 2^8 = 256 memoryless strategies fit a tile side of round(2^(17/2)) = 362;
        # 2^9 = 512 do not
        assert search._tile_side(2) == 362
        game = random_mtg(random.Random(2), 2, n_states, 2, 2, 3)
        result = find_cne(game, 1, budget=200)
        assert (result.status, result.examined) == ("budget-exhausted", 200)
        assert bool(called) == runs

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


def _rotation_game(k):
    """One player, who wins topology ``ti`` iff the play visits ``xi`` infinitely often.

    From ``c`` action ``i`` leads to ``xi``, and every ``xi`` leads back to
    ``c``, so winning all ``k`` topologies takes ``k`` memory states.
    """
    states = ("c",) + tuple(f"x{i}" for i in range(1, k + 1))
    actions = tuple(str(i) for i in range(1, k + 1))
    tops = tuple(f"t{i}" for i in range(1, k + 1))
    transition = {(t, s, (a,)): f"x{a}" if s == "c" else "c"
                  for t in tops for s in states for a in actions}
    priority = {(t, "p0", s): int(s != f"x{t[1:]}") for t in tops for s in states}
    return Mtg(players=("p0",), states=states, initial="c", actions=actions,
               topologies=tops, transition=transition, priority=priority)


def _reference_scan(game, kind, bound, budget=None, targets=None):
    """Every row in ``_candidate_chunks`` order, each decided on its own, with no screen."""
    check = {"gne": check_gne, "cne": check_cne}.get(kind)
    examined = 0
    for chunk in search._candidate_chunks(game, bound):
        for b in range(chunk.batch):
            examined += 1
            profile = search._materialize(game, chunk, b)
            if (wintop_map(game, profile) == targets if kind == "target"
                    else check(game, profile).verdict):
                return "found", examined, profile
            if examined == budget:  # a budget of the whole space still reads as spent
                return "budget-exhausted", examined, None
    return "exhausted-space", examined, None


class TestScreenedSearchEqualsReference:
    """The closed-walk screen changes no status, count or profile, across many tiles."""

    @staticmethod
    def _run(game, kind, bound, budget=None, targets=None):
        if kind == "target":
            result = find_profile_with_wintop(game, targets, bound, budget=budget)
        else:
            result = (find_gne if kind == "gne" else find_cne)(game, bound, budget=budget)
        return result.status, result.examined, result.profile

    @staticmethod
    def _spy_exact_checks(monkeypatch):
        """The profiles a search hands its exact GNE or target check."""
        checked = []
        for name in ("check_gne", "wintop_map"):
            def spy(game, profile, *args, real=getattr(search, name), **kwargs):
                checked.append(profile)
                return real(game, profile, *args, **kwargs)
            monkeypatch.setattr(search, name, spy)
        return checked

    @staticmethod
    def _assert_survivors_are_answers(kind, got, checked):
        """A GNE or target search's screens are exact: it checks only the row it returns."""
        if kind != "cne":
            assert checked == ([got[2]] if got[0] == "found" else [])

    @pytest.mark.parametrize("n_players, n_states, bound",
                             [(2, 2, 2), (2, 3, 1), (3, 3, 1), (3, 2, 1)])
    def test_random_games(self, n_players, n_states, bound, monkeypatch):
        monkeypatch.setattr(search, "CHUNK_CAP", 16)  # four strategies per player a tile
        checked = self._spy_exact_checks(monkeypatch)
        prefiltered = []
        improvable = search._memoryless_improvable

        def spy(*args):
            prefiltered.append(1)
            return improvable(*args)
        monkeypatch.setattr(search, "_memoryless_improvable", spy)
        rng = random.Random(10 * n_players + n_states)
        # the four memoryless strategies of a 2-state game fill one tile side,
        # so the CNE prefilter runs; with 3 states it would not
        kinds = ("gne", "target", "target") + ("cne",) * (n_states == 2)
        for _ in range(8):
            game = random_mtg(rng, n_players=n_players, n_states=n_states,
                              n_topologies=rng.randint(2, 3), max_priority=rng.randint(2, 4))
            aimed = {p: frozenset(rng.sample(game.topologies, rng.randint(0, 2)))
                     for p in game.players}
            reachable = wintop_map(game, random_profile(rng, game, bound))
            for kind, targets in zip(kinds, (None, aimed, reachable, None)):
                want = _reference_scan(game, kind, bound, budget=3000, targets=targets)
                checked.clear()
                assert (got := self._run(game, kind, bound, 3000, targets)) == want
                self._assert_survivors_are_answers(kind, got, checked)
        assert bool(prefiltered) == (n_states == 2)

    @pytest.mark.parametrize("n_players, n_states", [(2, 3), (3, 2)])
    def test_gne_screen_keeps_exactly_the_equilibria(self, n_players, n_states):
        rng = random.Random(90 + n_players)
        kept = 0
        for _ in range(4):
            game = random_mtg(rng, n_players=n_players, n_states=n_states,
                              n_topologies=rng.randint(2, 3), max_priority=rng.randint(2, 4))
            idx_game = search.compile_tables(game)
            for chunk in search._candidate_chunks(game, 1):
                rows, masks = search._wintop_masks(idx_game, chunk)
                screen = np.ones(len(rows), dtype=bool)
                for p in range(n_players):
                    alone = search._alone_masks(idx_game, chunk, p)[chunk.co_index(rows, p)]
                    screen &= masks[:, p] == alone
                for b in rows:
                    profile = search._materialize(game, chunk, int(b))
                    assert screen[b] == check_gne(game, profile).verdict
                kept += int(screen.sum())
        assert 0 < kept

    @pytest.mark.parametrize("n_players, n_states", [(2, 3), (3, 2)])
    def test_pattern_screen_prunes_no_equilibrium(self, n_players, n_states):
        rng = random.Random(95 + n_players)
        patterns = np.arange(1 << n_players)[:, None, None] >> np.arange(n_players) & 1
        pruned = 0
        for _ in range(4):
            game = random_mtg(rng, n_players=n_players, n_states=n_states,
                              n_topologies=rng.randint(2, 3), max_priority=rng.randint(2, 4))
            idx_game = search.compile_tables(game)
            stack = np.broadcast_to(patterns, (len(patterns), *idx_game.prio.shape[:2]))
            for chunk in search._candidate_chunks(game, 1):
                ok = search._admitted(idx_game, chunk, stack, "gne").ravel()
                for b in np.flatnonzero(~ok):
                    profile = search._materialize(game, chunk, int(b))
                    assert not check_gne(game, profile).verdict
                pruned += int((~ok).sum())
        assert pruned > 0

    @pytest.mark.parametrize("n_states, bound, max_top", [(2, 2, 3), (1, 3, 3), (2, 2, 5)],
                             ids=["2-2", "1-3", "2-2-5"])
    def test_one_player_games(self, n_states, bound, max_top, monkeypatch):
        monkeypatch.setattr(search, "_SWEEP_RANGE", 24)  # several ranges a block
        calls = []
        sweep = search._kernels.sweep_block

        def spy(*args, **kwargs):
            calls.append(1)
            return sweep(*args, **kwargs)
        monkeypatch.setattr(search._kernels, "sweep_block", spy)
        checked = self._spy_exact_checks(monkeypatch)
        rng = random.Random(60 + n_states + 10 * (max_top - 3))
        statuses = set()
        swept = set()  # whether a search simulated, or no allowed set could be won
        for _ in range(6):
            game = random_mtg(rng, n_players=1, n_states=n_states,
                              n_topologies=rng.randint(2, max_top),
                              max_priority=rng.randint(2, 4))
            count = sum(chunk.batch for chunk in search._candidate_chunks(game, bound))
            aimed = {"p0": frozenset(rng.sample(game.topologies, rng.randint(0, 2)))}
            reachable = wintop_map(game, random_profile(rng, game, bound))
            for kind, targets in (("gne", None), ("cne", None), ("target", aimed),
                                  ("target", reachable)):
                for budget in (None, rng.randrange(1, count), count):
                    want = _reference_scan(game, kind, bound, budget=budget, targets=targets)
                    before = len(calls)
                    checked.clear()
                    assert (got := self._run(game, kind, bound, budget, targets)) == want
                    self._assert_survivors_are_answers(kind, got, checked)
                    swept.add(len(calls) > before)
                    statuses.add(want[0])
                    if budget == count:
                        assert want[0] in ("found", "budget-exhausted")
        assert statuses == {"found", "budget-exhausted", "exhausted-space"}
        assert swept == {True, False}

    def test_budget_ends_inside_a_tile_with_pruned_rows(self, monkeypatch):
        monkeypatch.setattr(search, "CHUNK_CAP", 16)
        rng = random.Random(75)
        for _ in range(20):
            game = random_mtg(rng, n_players=2, n_states=2, n_topologies=2)
            targets = wintop_map(game, random_profile(rng, game, 2))
            wants = np.array([[int(t not in targets[p]) for p in game.players]
                              for t in game.topologies])
            idx_game = search.compile_tables(game)
            examined = 0
            for chunk in search._candidate_chunks(game, 2):
                # rows with a strategy that fails the targets against every
                # co-play are pruned; the others are simulated
                ok = [search._walk_masks(idx_game, chunk, [p], wants[None])[:, 0] == 3
                      for p in range(2)]
                if not ok[0].all() and ok[0].any() and ok[1].any():
                    break
                examined += chunk.batch
            else:
                continue
            budget = examined + chunk.batch // 2
            want = _reference_scan(game, "target", 2, budget=budget, targets=targets)
            assert self._run(game, "target", 2, budget, targets) == want
            if want[0] == "budget-exhausted":
                return
        pytest.fail("no search ended inside a tile with both pruned and simulated rows")


def _screen_spy(monkeypatch):
    """Record (player, memory size, strategy tables, question) of every one-fixed-player screen.

    A window's strategies may be screened under more than one question in a
    search: a 2-player GNE search asks the 4-pattern stack in the size vectors
    it screens, and the alone question in those under ``_SCREEN_ROWS``.
    """
    screened = []
    walks = search._kernels.closed_walk_exists

    def spy(delta, prio, tables, rows, *rest):
        fixed = [q for q, pair in enumerate(tables) if pair is not None]
        if len(fixed) == 1:
            (q,), (upd, act) = fixed, tables[fixed[0]]
            screened.extend((q, upd.shape[1], upd[r].tobytes() + act[r].tobytes(),
                             np.asarray(rest[-1]).tobytes()) for r in rows[q])
        return walks(delta, prio, tables, rows, *rest)
    monkeypatch.setattr(search._kernels, "closed_walk_exists", spy)
    return screened


def _reached(game, budget):
    """Per (player, memory size): the strategies of the chunks a budgeted search reaches."""
    reached, examined = {}, 0
    for chunk in search._candidate_chunks(game, 2):
        for q, (m, pc) in enumerate(zip(chunk.sizes, chunk.per_player)):
            reached.setdefault((q, m), set()).update(
                u.tobytes() + a.tobytes() for u, a in zip(pc.upd, pc.act))
        examined += chunk.batch
        if examined >= budget:
            return reached


class TestDecodeOncePerSearch:
    """A block of at most ``_SMALL_BLOCK`` indices is decoded once a search, whichever
    player reads it."""

    @pytest.mark.parametrize("name, decoded", [("router-target-m2", [1, 2]),
                                               ("xor-gne-m2-budget", [1, 2]),
                                               ("router-gne-m2", [1])])
    def test_each_block_is_decoded_once(self, router, xor, name, decoded, monkeypatch):
        sizes = []
        chunks = StrategyBlock.canonical_chunks

        def spy(block, *args, **kwargs):
            sizes.append(block.m)
            return chunks(block, *args, **kwargs)
        monkeypatch.setattr(StrategyBlock, "canonical_chunks", spy)
        targets = io.load_targets(io.data_path("router-all.tt"), router)
        {"router-target-m2": lambda: find_profile_with_wintop(router, targets, 2),
         "xor-gne-m2-budget": lambda: find_gne(xor, 2, budget=150000),
         "router-gne-m2": lambda: find_gne(router, 2)}[name]()
        assert sizes == decoded


class TestScreenOncePerSearch:
    """Each (player, memory size, strategy) is screened at most once a search per question, a
    window a call."""

    def test_router_screens_each_strategy_once(self, router, monkeypatch):
        screened = _screen_spy(monkeypatch)
        targets = io.load_targets(io.data_path("router-all.tt"), router)
        result = find_profile_with_wintop(router, targets, 2)
        # both players' 8 memoryless and 4,096 memory-2 strategies, once each
        assert len(screened) == len(set(screened)) == 2 * (8 + 4096)
        assert (result.status, result.examined) == ("found", 3544647)
        assert wintop_map(router, result.profile) == targets

    @pytest.mark.parametrize("window", [None, 1000])
    def test_budgeted_search_screens_one_window_past_what_it_reaches(self, xor, window,
                                                                     monkeypatch):
        if window is not None:
            monkeypatch.setattr(search, "_WINDOW", window)  # two chunks of 362 a window
        screened = _screen_spy(monkeypatch)
        reached = _reached(xor, 100)
        result = find_gne(xor, 2, budget=100)
        assert len(screened) == len(set(screened))
        by_block = {}
        for q, m, strategy, _ in screened:
            by_block.setdefault((q, m), set()).add(strategy)
        assert by_block.keys() == reached.keys()
        for key, strategies in by_block.items():
            assert reached[key] <= strategies
            assert len(strategies) <= len(reached[key]) + search._WINDOW
        assert (result.status, result.examined, result.profile) == ("budget-exhausted", 100, None)

    def test_screened_gne_window_is_decided_once(self, xor, monkeypatch):
        """A screened 2-player GNE window's alone sets come from its 4-pattern table."""
        graphs = []
        walks = search._kernels.closed_walk_exists

        def spy(delta, prio, tables, rows, *rest):
            graphs.append(len(next(r for r in rows if r is not None)))
            return walks(delta, prio, tables, rows, *rest)
        monkeypatch.setattr(search._kernels, "closed_walk_exists", spy)
        result = find_gne(xor, 2, budget=150000)
        assert (result.status, result.examined) == ("budget-exhausted", 150000)
        # per player: the memoryless window (8 strategies) is asked the alone
        # question in the (1, 1) size vector, under the break-even, and the
        # 4-pattern stack in the screened ones, like the two memory-2 windows
        # (3,982 and 114); an alone question per screened window would add 4 calls
        assert (len(graphs), sum(graphs)) == (8, 8224)

    def test_alone_screens_decide_each_graph_once(self, monkeypatch):
        """A 3-player GNE search keeps its two-fixed-player screens for the whole search."""
        decided = []
        walks = search._kernels.closed_walk_exists

        def spy(delta, prio, tables, rows, *rest):
            fixed = [q for q, pair in enumerate(tables) if pair is not None]
            decided.extend((*fixed, np.asarray(rest[-1]).tobytes(),
                            *(tables[q][0][i].tobytes() + tables[q][1][i].tobytes()
                              for q, i in zip(fixed, graph)))
                           for graph in zip(*(rows[q] for q in fixed)))
            return walks(delta, prio, tables, rows, *rest)
        monkeypatch.setattr(search._kernels, "closed_walk_exists", spy)
        result = find_gne(random_mtg(random.Random(21), 3, 2, 2, 4, 6), 2, budget=100000)
        assert (result.status, result.examined) == ("found", 11945)
        assert len(decided) == len(set(decided)) == 6184

    def test_searches_leave_no_reference_cycle(self, router, xor):
        game3 = random_mtg(random.Random(3), n_players=3, n_states=2, n_actions=2,
                           n_topologies=2, max_priority=3)
        targets = io.load_targets(io.data_path("router-all.tt"), router)
        debug = gc.get_debug()
        gc.collect()
        gc.disable()
        try:
            find_profile_with_wintop(router, targets, 2)
            find_gne(xor, 2, budget=2000)
            find_cne(xor, 2, budget=2000)
            find_profile_with_wintop(game3, {p: frozenset() for p in game3.players}, 2,
                                     budget=2000)
            find_gne(game3, 2, budget=2000)
            find_cne(game3, 1, budget=2000)
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            cyclic = [type(o).__name__ for o in gc.garbage]
        finally:
            gc.set_debug(debug)
            gc.garbage.clear()
            gc.enable()
        assert "_PlayerChunk" not in cyclic and "_Chunk" not in cyclic


PINNED_SEARCHES = Path(__file__).resolve().parent / "data" / "pinned-searches.json"


def _pinned_searches():
    """(name, tile cap, game, kind, targets, budget) of the searches ``PINNED_SEARCHES`` records.

    Target and GNE searches at bound 2 on random 2- and 3-player games, with
    and without a budget. The 2-state 2-player games run at ``CHUNK_CAP = 64``,
    eight strategies a tile side, so that they cross many chunks too; the
    others at the default, ``None``. The file holds what ``_pinned_outputs()``
    gave before each closed-walk screen was kept for the whole search.
    """
    rng = random.Random(2027)
    for i in range(12):
        n_players, n_states = ((2, 2), (2, 3), (3, 2))[i % 3]
        cap = 64 if (n_players, n_states) == (2, 2) else None
        game = random_mtg(rng, n_players=n_players, n_states=n_states,
                          n_topologies=rng.randint(2, 4), max_priority=rng.randint(3, 6))
        reachable = wintop_map(game, random_profile(rng, game, 2))
        aimed = {p: frozenset(rng.sample(game.topologies, rng.randint(0, 2)))
                 for p in game.players}
        budgets = (rng.randrange(100, 20000),) + ((None,) if n_states == 2 else ())
        for kind, targets in (("gne", None), ("reachable", reachable), ("aimed", aimed)):
            for budget in budgets:
                if budget is None and (n_players, kind) in ((3, "gne"), (3, "aimed")):
                    continue  # up to 17,576,000 rows
                yield f"{i}-{kind}-{budget}", cap, game, kind, targets, budget


def _pinned_outputs():
    """Name -> [status, examined, profile document or None] of each of ``_pinned_searches``."""
    out = {}
    for name, cap, game, kind, targets, budget in _pinned_searches():
        saved, search.CHUNK_CAP = search.CHUNK_CAP, cap or search.CHUNK_CAP
        try:
            result = (find_gne(game, 2, budget=budget) if kind == "gne" else
                      find_profile_with_wintop(game, targets, 2, budget=budget))
        finally:
            search.CHUNK_CAP = saved
        profile = result.profile and io.profile_to_dict(result.profile, game)
        out[name] = [result.status, result.examined, profile]
    return out


@pytest.mark.parametrize("name, value", [(None, None), ("_WINDOW", 160), ("_SMALL_BLOCK", 0)],
                         ids=["None", "160", "streamed"])
def test_pinned_searches_keep_their_outputs(name, value, monkeypatch):
    """Status, ``examined`` and profile as recorded, whatever the screen's window, and
    when every block of every player streams, as a block past ``_SMALL_BLOCK`` does."""
    if name is not None:
        # a window of 160 holds 20 chunks at CHUNK_CAP = 64 with 2 players, 3 at
        # the default with 3 players, and 1 at the default with 2
        monkeypatch.setattr(search, name, value)
    assert _pinned_outputs() == json.loads(PINNED_SEARCHES.read_text())


GOLDEN_SEARCHES = Path(__file__).resolve().parent.parent / "perfbench" / "golden" / "search.json"


class TestBenchmarkSearches:
    """The benchmark's searches give the recorded status, count and profile bytes."""

    @pytest.mark.parametrize("name", ["fig3-gne-m3", "router-target-m2", "xor-gne-m2-budget"])
    def test_matches_golden(self, name, router, fig3, xor):
        targets = io.load_targets(io.data_path("router-all.tt"), router)
        game, result = {
            "fig3-gne-m3": lambda: (fig3, find_gne(fig3, 3)),
            "router-target-m2": lambda: (router, find_profile_with_wintop(router, targets, 2)),
            "xor-gne-m2-budget": lambda: (xor, find_gne(xor, 2, budget=150000)),
        }[name]()
        profile = None
        if result.profile is not None:
            profile = io.dumps_canonical(io.profile_to_dict(result.profile, game))
        got = {"status": result.status, "examined": result.examined, "profile": profile}
        assert got == json.loads(GOLDEN_SEARCHES.read_text())[name]
