import dataclasses
import random

import numpy as np
import pytest

from brute import raw_step_wintop
from mtgames import _kernels
from mtgames.core import compile_tables
from mtgames.generate import random_mtg, random_profile, random_strategy
from mtgames.search import find_profile_with_wintop
from mtgames.strategy import Profile, StrategyBlock, wintop

BACKENDS = ["numpy"] + (["numba"] if _kernels.HAS_NUMBA else [])


class TestCodecs:
    def test_decode_encode_roundtrip(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 3 ** 6, size=200, dtype=np.int64)
        digits = _kernels.decode_tables(idx, 6, 3)
        assert np.array_equal(_kernels.encode_tables(digits, 3), idx)

    def test_decode_is_most_significant_first(self):
        digits = _kernels.decode_tables(np.array([5], dtype=np.int64), 3, 2)
        assert digits.tolist() == [[1, 0, 1]]

    def test_canonical_mask_small(self):
        # memory 3, single state: update cell per memory state
        m, cells = 3, 3
        total = (3 ** cells) * (2 ** cells)
        idx = np.arange(total, dtype=np.int64)
        upd = _kernels.decode_tables(idx // (2 ** cells), cells, m)
        act = _kernels.decode_tables(idx % (2 ** cells), cells, 2)
        keep = _kernels.canonical_mask(upd, act, m, 2)
        # brute check: a row is kept iff no relabeling is smaller
        phis, invs = _kernels.renaming_perms(m)
        for row in range(0, total, 37):
            u = upd[row].reshape(m, 1)
            a = act[row].reshape(m, 1)
            minimal = True
            for phi, inv in zip(phis, invs):
                rel_u = phi[u[inv]].ravel()
                rel_a = a[inv].ravel()
                key = tuple(rel_u) + tuple(rel_a)
                orig = tuple(u.ravel()) + tuple(a.ravel())
                if key < orig:
                    minimal = False
            assert keep[row] == minimal


@pytest.mark.parametrize("backend", BACKENDS)
class TestSimulate:
    def test_matches_lasso_wintop(self, backend):
        rng = random.Random(13)
        for _ in range(25):
            game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(2, 4))
            idx = compile_tables(game)
            profile = random_profile(rng, game, memory=2)
            tables = [s.tables(game) for s in profile.by_player]
            wins = _kernels.simulate_min_even(idx.delta, idx.prio, tables,
                                              idx.initial, idx.n_actions, backend=backend)
            for ti, t in enumerate(game.topologies):
                for pi, p in enumerate(game.players):
                    assert wins[0, ti, pi] == (t in wintop(game, profile, p))

    def test_batched_equals_individual(self, backend):
        rng = random.Random(14)
        game = random_mtg(rng, n_players=2, n_states=3)
        idx = compile_tables(game)
        strategies = [random_strategy(rng, game, 2) for _ in range(6)]
        fixed = random_strategy(rng, game, 2)
        batch_upd = np.concatenate([s.tables(game)[0] for s in strategies])
        batch_act = np.concatenate([s.tables(game)[1] for s in strategies])
        wins = _kernels.simulate_min_even(
            idx.delta, idx.prio, [(batch_upd, batch_act), fixed.tables(game)],
            idx.initial, idx.n_actions, backend=backend)
        for i, strat in enumerate(strategies):
            profile = Profile((strat, fixed))
            for ti, t in enumerate(game.topologies):
                for pi, p in enumerate(game.players):
                    assert wins[i, ti, pi] == (t in wintop(game, profile, p)), (i, t, p)

    def test_tail_window_equals_raw_simulation(self, backend):
        rng = random.Random(15)
        game = random_mtg(rng, n_players=1, n_states=4)
        idx = compile_tables(game)
        strat = random_strategy(rng, game, 3)
        wins = _kernels.simulate_min_even(idx.delta, idx.prio, [strat.tables(game)],
                                          idx.initial, idx.n_actions, backend=backend)
        brute = raw_step_wintop(game, Profile((strat,)), game.players[0])
        for ti, t in enumerate(game.topologies):
            assert wins[0, ti, 0] == (t in brute)


def _stacked_tables(game, strategies):
    tabs = [s.tables(game) for s in strategies]
    return np.concatenate([u for u, _ in tabs]), np.concatenate([a for _, a in tabs])


def _check_rows(game, tables, strategies, rows):
    """Kernel flags of ``rows`` against the lasso and raw-simulation oracles.

    ``strategies[p]`` lists player ``p``'s strategy per row, or holds one
    strategy when that player's tables are broadcast.
    """
    idx = compile_tables(game)
    wins = _kernels.simulate_min_even(idx.delta, idx.prio, tables, idx.initial,
                                      idx.n_actions, backend="numpy")
    for b in rows:
        profile = Profile(tuple(s[b] if len(s) > 1 else s[0] for s in strategies))
        for pi, p in enumerate(game.players):
            lasso = wintop(game, profile, p)
            assert lasso == raw_step_wintop(game, profile, p)
            for ti, t in enumerate(game.topologies):
                assert wins[b, ti, pi] == (t in lasso), (b, t, p)


class TestProductWalk:
    def test_mixed_players_memories_and_broadcasts(self):
        rng = random.Random(21)
        for _ in range(40):
            n_players = rng.randint(1, 3)
            game = random_mtg(rng, n_players=n_players, n_states=rng.randint(2, 5),
                              n_topologies=rng.randint(1, 3), max_priority=8)
            game = dataclasses.replace(game, initial=rng.choice(game.states))
            batch = rng.randint(2, 6)
            strategies = []
            for _ in game.players:
                memory = rng.randint(1, 3)
                count = 1 if rng.random() < 0.4 else batch
                strategies.append([random_strategy(rng, game, memory) for _ in range(count)])
            tables = [_stacked_tables(game, strats) for strats in strategies]
            rows = batch if any(len(s) > 1 for s in strategies) else 1
            _check_rows(game, tables, strategies, range(rows))

    def test_batch_crosses_sub_batches(self):
        rng = random.Random(22)
        game = random_mtg(rng, n_players=2, n_states=3, max_priority=6)
        game = dataclasses.replace(game, initial=game.states[2])
        block = StrategyBlock(game, 2)
        batch = 2 * _kernels.SUB_BATCH + 5
        indices = np.random.default_rng(22).integers(0, block.total, size=batch)
        fixed = random_strategy(rng, game, 3)
        tables = [block.decode(indices), fixed.tables(game)]
        strategies = [[block.strategy_at(int(i)) for i in indices], [fixed]]
        edges = [0, _kernels.SUB_BATCH - 1, _kernels.SUB_BATCH, _kernels.SUB_BATCH + 1,
                 2 * _kernels.SUB_BATCH - 1, 2 * _kernels.SUB_BATCH, batch - 1]
        _check_rows(game, tables, strategies, edges + rng.sample(range(batch), 30))

    def test_wide_priorities_use_running_minimum(self):
        rng = random.Random(23)
        game = random_mtg(rng, n_players=3, n_states=11, n_topologies=2, max_priority=22)
        priority = dict(game.priority)
        priority[("t0", "p0", "s1")] = 0
        priority[("t1", "p2", "s4")] = 22
        game = dataclasses.replace(game, priority=priority, initial="s3")
        idx = compile_tables(game)
        assert 3 * (int(idx.prio.max()) - int(idx.prio.min()) + 1) > 63
        strategies = []
        for _ in game.players:
            memory = rng.randint(1, 2)
            strategies.append([random_strategy(rng, game, memory) for _ in range(4)])
        tables = [_stacked_tables(game, strats) for strats in strategies]
        _check_rows(game, tables, strategies, range(4))

    def test_router_target_search_independent_of_jobs(self, router):
        targets = {"blue": frozenset({"A", "B"}), "red": frozenset({"A", "B"})}
        one = find_profile_with_wintop(router, targets, 2, jobs=1)
        two = find_profile_with_wintop(router, targets, 2, jobs=2)
        assert one.status == two.status == "found"
        assert one.examined == two.examined
        assert one.profile == two.profile


def _check_sweep(game, var_player, co, m, lo, hi):
    """numpy ``sweep_block`` over ``[lo, hi)`` against ``canonical_mask`` and ``wintop``.

    ``co[p]`` is player ``p``'s fixed strategy; ``co[var_player]`` is ignored.
    Returns the number of kept rows.
    """
    idx = compile_tables(game)
    fixed = [None if p == var_player else s.tables(game) for p, s in enumerate(co)]
    keep, bits = _kernels.sweep_block(idx.delta, idx.prio, fixed, var_player, m, lo, hi,
                                      idx.initial, idx.n_actions, backend="numpy")
    block = StrategyBlock(game, m)
    upd, act = block.decode(np.arange(lo, hi, dtype=np.int64))
    want = _kernels.canonical_mask(upd.reshape(hi - lo, -1), act.reshape(hi - lo, -1),
                                   m, block.n_actions)
    assert np.array_equal(keep.astype(bool), want)
    player = game.players[var_player]
    for i in np.nonzero(keep)[0]:
        profile = Profile(tuple(block.strategy_at(lo + int(i)) if p == var_player else s
                                for p, s in enumerate(co)))
        won = wintop(game, profile, player)
        mask = sum(1 << t for t, name in enumerate(game.topologies) if name in won)
        assert bits[i] == mask, (m, lo + int(i))
    return int(np.count_nonzero(keep))


def _unaligned_range(rng, block, length, lo_below=None):
    """A range of about ``length`` indices whose ends are off the act-table grid."""
    n_act = block.n_act_tables
    lo = rng.randrange(1, lo_below or block.total - length - 1)
    lo += lo % n_act == 0
    hi = lo + length
    hi += hi % n_act == 0
    return lo, hi


class TestSweepBlock:
    def test_random_games_and_co_strategies(self):
        rng = random.Random(31)
        for _ in range(12):
            n_players = rng.randint(1, 3)
            game = random_mtg(rng, n_players=n_players, n_states=rng.randint(2, 3),
                              n_topologies=rng.randint(1, 3), max_priority=6)
            game = dataclasses.replace(game, initial=rng.choice(game.states))
            var_player = rng.randrange(1, n_players) if n_players > 1 else 0
            co = [random_strategy(rng, game, rng.randint(1, 3)) for _ in game.players]
            for m in (1, 2, 3):
                block = StrategyBlock(game, m)
                lo, hi = _unaligned_range(rng, block, min(block.total - 3,
                                                          2 * block.n_act_tables + 7, 600))
                _check_sweep(game, var_player, co, m, lo, hi)

    def test_range_crosses_sub_batch(self):
        rng = random.Random(32)
        game = random_mtg(rng, n_players=2, n_states=3, max_priority=5)
        co = [random_strategy(rng, game, 2), None]
        block = StrategyBlock(game, 3)
        # early update tables are mostly canonical, so the kept rows fill more than one sub-batch
        lo, hi = _unaligned_range(rng, block, 2 * _kernels.SUB_BATCH + 1000, block.total // 100)
        assert _check_sweep(game, 1, co, 3, lo, hi) > _kernels.SUB_BATCH

    def test_wide_priorities(self):
        rng = random.Random(33)
        game = random_mtg(rng, n_players=3, n_states=3, n_topologies=2, max_priority=22)
        priority = dict(game.priority)
        priority[("t0", "p1", "s1")] = 0
        # the varying player's field would sit past bit 63 in topology t1
        priority.update({("t1", "p2", "s0"): 20, ("t1", "p2", "s1"): 21,
                         ("t1", "p2", "s2"): 22})
        game = dataclasses.replace(game, priority=priority, initial="s1")
        idx = compile_tables(game)
        assert 3 * (int(idx.prio.max()) - int(idx.prio.min()) + 1) > 63
        co = [random_strategy(rng, game, memory) for memory in (3, 1, 2)]
        for m in (1, 2, 3):
            block = StrategyBlock(game, m)
            lo, hi = _unaligned_range(rng, block, min(block.total - 3, 500))
            _check_sweep(game, 2, co, m, lo, hi)


@pytest.mark.skipif(not _kernels.HAS_NUMBA, reason="numba unavailable")
class TestBackendEquivalence:
    def test_simulate_identical(self):
        rng = random.Random(16)
        for _ in range(10):
            game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(2, 4))
            idx = compile_tables(game)
            block = StrategyBlock(game, 2)
            n = min(block.total, 512)
            indices = np.arange(n, dtype=np.int64)
            upd, act = block.decode(indices)
            others = [random_strategy(rng, game, 2).tables(game)
                      for _ in range(len(game.players) - 1)]
            tables = [(upd, act)] + others
            a = _kernels.simulate_min_even(idx.delta, idx.prio, tables,
                                           idx.initial, idx.n_actions, backend="numba")
            b = _kernels.simulate_min_even(idx.delta, idx.prio, tables,
                                           idx.initial, idx.n_actions, backend="numpy")
            assert np.array_equal(a, b)

    def test_sweep_identical(self):
        rng = random.Random(17)
        for _ in range(8):
            game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=3)
            idx = compile_tables(game)
            fixed = [None] + [random_strategy(rng, game, 2).tables(game)
                              for _ in range(len(game.players) - 1)]
            for m in (1, 2, 3):
                block = StrategyBlock(game, m)
                hi = min(block.total, 2048)
                ka, ba = _kernels.sweep_block(idx.delta, idx.prio, fixed, 0, m, 0, hi,
                                              idx.initial, idx.n_actions, backend="numba")
                kb, bb = _kernels.sweep_block(idx.delta, idx.prio, fixed, 0, m, 0, hi,
                                              idx.initial, idx.n_actions, backend="numpy")
                assert np.array_equal(ka, kb)
                assert np.array_equal(ba, bb)

    def test_env_flag_selects_backend(self, monkeypatch):
        monkeypatch.setenv("MTGAMES_KERNEL", "numpy")
        assert _kernels.active_backend() == "numpy"
        monkeypatch.setenv("MTGAMES_KERNEL", "numba")
        assert _kernels.active_backend() == "numba"
        monkeypatch.setenv("MTGAMES_KERNEL", "auto")
        assert _kernels.active_backend() == "numba"
        monkeypatch.setenv("MTGAMES_KERNEL", "bogus")
        with pytest.raises(ValueError):
            _kernels.active_backend()
