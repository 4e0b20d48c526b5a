import dataclasses
import random

import numpy as np
import pytest

from brute import float_closed_walk_exists, raw_step_wintop, residual_closed_walk
from mtgames import _kernels
from mtgames.core import Mtg, compile_tables
from mtgames.equilibria import can_deviator_win_set
from mtgames.generate import random_mtg, random_profile, random_strategy
from mtgames.strategy import (MooreStrategy, Profile, StrategyBlock, constant_strategy,
                              wintop)


def _mask(game, topologies):
    """The topology mask of a set of topology names: bit t for topology t."""
    return sum(1 << t for t, name in enumerate(game.topologies) if name in topologies)


def _flags(masks, n_top):
    """Unpack topology masks (...) into bool flags (..., n_top), flag t for bit t."""
    return (np.asarray(masks)[..., None] >> np.arange(n_top) & 1).astype(bool)


def _decode(block, indices):
    """Block indices -> ((B, M, S) update, (B, M, S) act) tables, the update table most significant."""
    upd_idx, act_idx = np.divmod(np.asarray(indices, dtype=np.int64), block.n_act_tables)
    shape = (len(upd_idx), block.m, block.n_states)
    return (_kernels.decode_tables(upd_idx, block.cells, block.m).reshape(shape),
            _kernels.decode_tables(act_idx, block.cells, block.n_actions).reshape(shape))


class TestCodecs:
    def test_decode_encode_roundtrip(self):
        rng = np.random.default_rng(0)
        idx = rng.integers(0, 3 ** 6, size=200, dtype=np.int64)
        digits = _kernels.decode_tables(idx, 6, 3)
        assert np.array_equal(_kernels.encode_tables(digits, 3), idx)

    def test_decode_is_most_significant_first(self):
        digits = _kernels.decode_tables(np.array([5], dtype=np.int64), 3, 2)
        assert digits.tolist() == [[1, 0, 1]]

    def test_strategy_at_equals_decoded_tables(self):
        game = random_mtg(random.Random(3), n_players=1, n_states=2, n_actions=3)
        for m in (1, 2, 3):
            block = StrategyBlock(game, m)
            indices = (np.arange(block.total) if m <= 2 else
                       np.random.default_rng(m).integers(0, block.total, size=300))
            upd, act = _decode(block, indices)
            for i, u, a in zip(indices, upd, act):
                got = block.strategy_at(int(i)).tables(game)
                assert np.array_equal(got[0][0], u) and np.array_equal(got[1][0], a)

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

    def test_canonical_range_equals_mask(self):
        rng = random.Random(19)
        for m, n_states, n_actions in ((1, 3, 2), (2, 2, 3), (3, 2, 2), (3, 1, 3), (4, 1, 2)):
            cells = m * n_states
            n_act = n_actions ** cells
            total = m ** cells * n_act
            for _ in range(4):
                lo = rng.randrange(total - 1)
                hi = min(total, lo + rng.randint(1, 3 * n_act + 5))
                keep, upd, row = _kernels.canonical_range(lo, hi, m, n_states, n_actions)
                idx = np.arange(lo, hi, dtype=np.int64)
                want_upd = _kernels.decode_tables(idx // n_act, cells, m)
                act = _kernels.decode_tables(idx % n_act, cells, n_actions)
                assert np.array_equal(upd[row], want_upd)
                assert np.array_equal(keep, _kernels.canonical_mask(want_upd, act, m, n_actions))


class TestSimulate:
    def test_matches_lasso_wintop(self):
        rng = random.Random(13)
        for _ in range(25):
            game = random_mtg(rng, n_players=rng.randint(1, 2), n_states=rng.randint(2, 4))
            idx = compile_tables(game)
            profile = random_profile(rng, game, memory=2)
            tables = [s.tables(game) for s in profile.by_player]
            wins = _kernels.simulate_min_even(idx.delta, idx.prio, tables,
                                              idx.initial, idx.n_actions)
            for pi, p in enumerate(game.players):
                assert wins[0, pi] == _mask(game, wintop(game, profile, p))

    def test_batched_equals_individual(self):
        rng = random.Random(14)
        game = random_mtg(rng, n_players=2, n_states=3)
        idx = compile_tables(game)
        strategies = [random_strategy(rng, game, 2) for _ in range(6)]
        fixed = random_strategy(rng, game, 2)
        batch_upd = np.concatenate([s.tables(game)[0] for s in strategies])
        batch_act = np.concatenate([s.tables(game)[1] for s in strategies])
        wins = _kernels.simulate_min_even(
            idx.delta, idx.prio, [(batch_upd, batch_act), fixed.tables(game)],
            idx.initial, idx.n_actions, rows=[np.arange(len(strategies)), None])
        for i, strat in enumerate(strategies):
            profile = Profile((strat, fixed))
            for pi, p in enumerate(game.players):
                assert wins[i, pi] == _mask(game, wintop(game, profile, p)), (i, p)

    def test_tail_window_equals_raw_simulation(self):
        rng = random.Random(15)
        game = random_mtg(rng, n_players=1, n_states=4)
        idx = compile_tables(game)
        strat = random_strategy(rng, game, 3)
        wins = _kernels.simulate_min_even(idx.delta, idx.prio, [strat.tables(game)],
                                          idx.initial, idx.n_actions)
        brute = raw_step_wintop(game, Profile((strat,)), game.players[0])
        assert wins[0, 0] == _mask(game, brute)


def _stacked_tables(game, strategies):
    tabs = [s.tables(game) for s in strategies]
    return np.concatenate([u for u, _ in tabs]), np.concatenate([a for _, a in tabs])


def _check_rows(game, tables, strategies, rows):
    """Kernel masks of ``rows`` against the lasso and raw-simulation oracles.

    ``strategies[p]`` lists player ``p``'s strategy per row, or holds one
    strategy that every row plays. Returns the masks.
    """
    idx = compile_tables(game)
    wins = _kernels.simulate_min_even(idx.delta, idx.prio, tables, idx.initial,
                                      idx.n_actions,
                                      rows=[np.arange(len(s)) if len(s) > 1 else None
                                            for s in strategies])
    for b in rows:
        profile = Profile(tuple(s[b] if len(s) > 1 else s[0] for s in strategies))
        for pi, p in enumerate(game.players):
            lasso = wintop(game, profile, p)
            assert lasso == raw_step_wintop(game, profile, p)
            assert wins[b, pi] == _mask(game, lasso), (b, p)
    return wins


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
        tables = [_decode(block, indices), fixed.tables(game)]
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
        assert int(idx.prio.max()) - int(idx.prio.min()) == 22
        strategies = []
        for _ in game.players:
            memory = rng.randint(1, 2)
            strategies.append([random_strategy(rng, game, memory) for _ in range(4)])
        tables = [_stacked_tables(game, strats) for strats in strategies]
        _check_rows(game, tables, strategies, range(4))


def _check_sweep(game, var_player, co, m, lo, hi):
    """numpy ``sweep_block`` over ``[lo, hi)`` against ``canonical_mask`` and ``wintop``.

    ``co[p]`` is player ``p``'s fixed strategy; ``co[var_player]`` is ignored.
    Returns the number of kept rows.
    """
    idx = compile_tables(game)
    fixed = [None if p == var_player else s.tables(game) for p, s in enumerate(co)]
    keep, bits = _kernels.sweep_block(idx.delta, idx.prio, fixed, var_player, m, lo, hi,
                                      idx.initial, idx.n_actions)
    block = StrategyBlock(game, m)
    upd, act = _decode(block, np.arange(lo, hi, dtype=np.int64))
    want = _kernels.canonical_mask(upd.reshape(hi - lo, -1), act.reshape(hi - lo, -1),
                                   m, block.n_actions)
    assert keep.dtype == bool and np.array_equal(keep, want)
    player = game.players[var_player]
    for i in np.nonzero(keep)[0]:
        profile = Profile(tuple(block.strategy_at(lo + int(i)) if p == var_player else s
                                for p, s in enumerate(co)))
        assert bits[i] == _mask(game, wintop(game, profile, player)), (m, lo + int(i))
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
        # the varying player's priorities reach 22 in topology t1
        priority.update({("t1", "p2", "s0"): 20, ("t1", "p2", "s1"): 21,
                         ("t1", "p2", "s2"): 22})
        game = dataclasses.replace(game, priority=priority, initial="s1")
        idx = compile_tables(game)
        assert int(idx.prio.max()) - int(idx.prio.min()) == 22
        co = [random_strategy(rng, game, memory) for memory in (3, 1, 2)]
        for m in (1, 2, 3):
            block = StrategyBlock(game, m)
            lo, hi = _unaligned_range(rng, block, min(block.total - 3, 500))
            _check_sweep(game, 2, co, m, lo, hi)


def _ring_game():
    """One player on four states; "a" moves round the ring, "b" stays (t0) or resets (t1)."""
    states = ("s0", "s1", "s2", "s3")
    transition = {}
    for i, s in enumerate(states):
        for t in ("t0", "t1"):
            transition[(t, s, ("a",))] = states[(i + 1) % 4]
        transition[("t0", s, ("b",))] = s
        transition[("t1", s, ("b",))] = "s0"
    priority = {("t0", "p0", s): v for s, v in zip(states, (3, 1, 2, 2))}
    priority.update({("t1", "p0", s): v for s, v in zip(states, (4, 2, 3, 3))})
    return Mtg(players=("p0",), states=states, initial="s0", actions=("a", "b"),
               topologies=("t0", "t1"), transition=transition, priority=priority)


def _product_lasso(game, strat, topology):
    """(tail, cycle) lengths of a one-player game's walk over (memory, state) positions."""
    pos = (strat.init, game.initial)
    seen = {}
    while pos not in seen:
        seen[pos] = len(seen)
        pos = (strat.update[pos], game.transition[(topology, pos[1], (strat.act[pos],))])
    return seen[pos], len(seen) - seen[pos]


def _strategy_of(game, upd, act):
    """The Moore strategy of one ``(M, S)`` update table and one act table; memory 0 is initial."""
    mems = tuple(f"m{i}" for i in range(upd.shape[0]))
    cells = [(i, j, (mems[i], s)) for i in range(len(mems)) for j, s in enumerate(game.states)]
    return MooreStrategy(memory=mems, init="m0",
                         update={cell: mems[int(upd[i, j])] for i, j, cell in cells},
                         act={cell: game.actions[int(act[i, j])] for i, j, cell in cells})


def _fold_spy(monkeypatch):
    """Record the steps ``simulate_min_even`` walks per sub-batch."""
    steps = []
    fold = _kernels._fold_cycles

    def spy(*args):
        minima, walked = fold(*args)
        steps.append(walked)
        return minima, walked
    monkeypatch.setattr(_kernels, "_fold_cycles", spy)
    return steps


class TestLassoClosure:
    def test_fold_stops_once_every_lasso_closes(self):
        # column v is 0 at node v and 1 elsewhere, so a walker's zero columns
        # are the node set it folded over
        nxt = np.arange(27)
        nxt[[0, 1, 2, 3]] = [0, 2, 3, 2]  # 0 loops; 1 -> (2 3)
        nxt[4:13] = np.arange(5, 14)  # 4 .. 12 -> (13): tail 9, cycle 1
        nxt[14:24] = np.roll(np.arange(14, 24), -1)  # (14 .. 23): tail 0, cycle 10
        nxt[24:27] = [25, 26, 24]  # (24 25 26)
        table = 1 - np.eye(27, dtype=np.int8)

        def fold(starts):
            minima, steps = _kernels._fold_cycles(nxt, np.array(starts), table, 10)
            nodes = [{v for v in range(27) if row[v] == 0} for row in minima]
            return nodes, steps

        short_cycles = [{0}, {2, 3}]
        # rounds of 1 and 2 steps: node 0 closes in the first, 1's mark is on (2 3) in the second
        assert fold([0, 1]) == (short_cycles, 3)
        # a 3-cycle returns to its mark before the end of the round of 4
        assert fold([0, 1, 24]) == (short_cycles + [{24, 25, 26}], 7)
        # 11 -> 12 -> (13) closes in the round of 4; the earlier rounds' 12 is no cycle node
        assert fold([0, 1, 11]) == (short_cycles + [{13}], 7)
        # lassos of the full window never close in a round: 2 * window steps
        assert fold([0, 1, 4, 14]) == (short_cycles + [{13}, set(range(14, 24))], 20)

    def test_long_lasso_takes_the_fallback_alone(self, monkeypatch):
        game = _ring_game()
        window = 2 * len(game.states)
        # plays "a" and counts to memory 1 at s3: the walk visits every (memory, state)
        # once with memory 0, then cycles through memory 1
        long = MooreStrategy(
            memory=("m0", "m1"), init="m0",
            update={(m, s): "m1" if m == "m1" or s == "s3" else "m0"
                    for m in ("m0", "m1") for s in game.states},
            act={(m, s): "a" for m in ("m0", "m1") for s in game.states})
        assert {_product_lasso(game, long, t) for t in game.topologies} == {(4, 4)}

        def closes_in_rounds(tail, cycle):  # the rounds that fit in 8 steps
            return any(tail <= start and cycle <= length
                       for start, length in ((0, 1), (1, 2), (3, 4)))
        rng = random.Random(41)
        short = []
        while len(short) < 12:
            strat = random_strategy(rng, game, 2)
            lassos = [_product_lasso(game, strat, t) for t in game.topologies]
            if all(closes_in_rounds(*lasso) for lasso in lassos):
                short.append(strat)
        assert any(tail > 0 for strat in short for tail, _ in
                   (_product_lasso(game, strat, t) for t in game.topologies))
        strategies = short + [long]

        batch = _kernels.SUB_BATCH + 50
        index = np.random.default_rng(41).integers(0, len(short), size=batch)
        index[_kernels.SUB_BATCH + 17] = len(short)
        idx = compile_tables(game)
        steps = _fold_spy(monkeypatch)
        wins = _kernels.simulate_min_even(idx.delta, idx.prio,
                                          [_stacked_tables(game, strategies)],
                                          idx.initial, idx.n_actions, rows=[index])
        assert steps[0] < 2 * window and steps[1] == 2 * window
        for i, strat in enumerate(strategies):
            profile = Profile((strat,))
            lasso = wintop(game, profile, "p0")
            assert lasso == raw_step_wintop(game, profile, "p0")
            assert (wins[index == i, 0] == _mask(game, lasso)).all(), i
        assert wins[_kernels.SUB_BATCH + 17, 0] == _mask(game, {"t1"})


class TestIndexedTables:
    def test_index_vectors_equal_materialised_tables(self):
        rng = random.Random(42)
        np_rng = np.random.default_rng(42)
        for _ in range(12):
            game = random_mtg(rng, n_players=3, n_states=rng.randint(2, 4),
                              n_topologies=rng.randint(1, 3), max_priority=6)
            game = dataclasses.replace(game, initial=rng.choice(game.states))
            mems = [rng.randint(1, 3) for _ in game.players]
            batch = rng.randint(5, 40)
            # player 0: distinct update and act tables with their own indices;
            # player 1: one index into both; player 2: one shared table
            upd0, _ = _stacked_tables(game, [random_strategy(rng, game, mems[0])
                                             for _ in range(5)])
            _, act0 = _stacked_tables(game, [random_strategy(rng, game, mems[0])
                                             for _ in range(3)])
            upd1, act1 = _stacked_tables(game, [random_strategy(rng, game, mems[1])
                                                for _ in range(4)])
            shared = random_strategy(rng, game, mems[2])
            iu, ia, i1 = (np_rng.integers(0, n, size=batch) for n in (5, 3, 4))
            assert len(set(iu.tolist())) < batch and not np.all(np.diff(iu) >= 0)
            idx = compile_tables(game)
            indexed = _kernels.simulate_min_even(
                idx.delta, idx.prio, [(upd0, act0), (upd1, act1), shared.tables(game)],
                idx.initial, idx.n_actions, rows=[(iu, ia), i1, None])
            materialised = [(upd0[iu], act0[ia]), (upd1[i1], act1[i1]), shared.tables(game)]
            strategies = [[_strategy_of(game, u, a) for u, a in zip(*materialised[0])],
                          [_strategy_of(game, u, a) for u, a in zip(*materialised[1])],
                          [shared]]
            assert np.array_equal(indexed, _check_rows(game, materialised, strategies,
                                                       rng.sample(range(batch), 5)))

    def test_rows_must_be_indexed_alike(self):
        game = random_mtg(random.Random(43), n_players=2)
        idx = compile_tables(game)
        tables = [_decode(StrategyBlock(game, 1), np.arange(3)) for _ in game.players]
        for pairs, rows in ((tables, [np.arange(3), np.arange(2)]),
                            (tables, [np.arange(3), None]), (tables, None), (tables[:1], None)):
            with pytest.raises(ValueError):
                _kernels.simulate_min_even(idx.delta, idx.prio, pairs, idx.initial,
                                           idx.n_actions, rows=rows)


def _stacked(game, strategies):
    """One player's ``(update, act)`` tables for strategies of one memory size."""
    pairs = [s.tables(game) for s in strategies]
    return np.concatenate([u for u, _ in pairs]), np.concatenate([a for _, a in pairs])


def _closed_walks(game, fixed, stack):
    """Kernel masks for ``fixed`` (player index -> list of strategies, one per graph) under
    a stack of K patterns, unpacked to flags (batch, K, top)."""
    idx = compile_tables(game)
    tables = [_stacked(game, fixed[p]) if p in fixed else None for p in range(len(game.players))]
    rows = [np.arange(len(fixed[p])) if p in fixed else None for p in range(len(game.players))]
    return _flags(_kernels.closed_walk_exists(idx.delta, idx.prio, tables, rows, idx.initial,
                                              idx.n_actions, np.asarray(stack)),
                  len(game.topologies))


def _graph_game(succ, prio):
    """Two players, one topology, states 0..n-1: the free player 1 picks successor
    ``succ[s][a]`` with action ``a`` whatever player 0 plays; ``prio`` is one
    row of priorities per player."""
    states = tuple(str(s) for s in range(len(succ)))
    transition = {("t", s, (a0, a1)): str(succ[int(s)][int(a1)])
                  for s in states for a0 in "01" for a1 in "01"}
    priority = {("t", p, s): prio[i][int(s)] for i, p in enumerate(("p0", "p1")) for s in states}
    return Mtg(players=("p0", "p1"), states=states, initial="0", actions=("0", "1"),
               topologies=("t",), transition=transition, priority=priority)


class TestClosedWalk:
    def test_matches_residual_solver_on_random_games(self):
        rng = random.Random(61)
        for _ in range(40):
            game = random_mtg(rng, n_players=rng.randint(2, 3), n_states=rng.randint(2, 3),
                              n_topologies=rng.randint(1, 3), max_priority=rng.randint(1, 5))
            n_pla = len(game.players)
            memory = [rng.randint(1, 3) for _ in game.players]
            batch = rng.randint(1, 4)
            strategies = [[random_strategy(rng, game, m) for _ in range(batch)] for m in memory]
            for dev in range(n_pla):
                wants = np.full((len(game.topologies), n_pla), -1)
                wants[:, dev] = 0
                got = _closed_walks(game, {p: strategies[p] for p in range(n_pla) if p != dev},
                                    [wants])[:, 0]
                for b in range(batch):
                    profile = Profile(tuple(strategies[p][b] for p in range(n_pla)))
                    for ti, t in enumerate(game.topologies):
                        want, _ = can_deviator_win_set(game, profile, game.players[dev],
                                                       frozenset({t}))
                        assert got[b, ti] == want, (dev, b, t)

    def test_graph_over_64_nodes(self):
        rng = random.Random(62)
        game = random_mtg(rng, n_players=3, n_states=8, n_topologies=2, max_priority=4)
        strategies = [random_strategy(rng, game, 3) for _ in game.players]
        profile = Profile(tuple(strategies))
        wants = np.full((2, 3), -1)
        wants[:, 0] = 0
        got = _closed_walks(game, {1: [strategies[1]], 2: [strategies[2]]}, [wants])[:, 0]
        assert 3 * 3 * 8 > 64
        for ti, t in enumerate(game.topologies):
            assert got[0, ti] == can_deviator_win_set(game, profile, "p0", frozenset({t}))[0]

    def test_several_wanted_rows_match_brute_force(self):
        rng = random.Random(63)
        for _ in range(60):
            game = random_mtg(rng, n_players=rng.randint(2, 3), n_states=rng.randint(2, 3),
                              n_topologies=rng.randint(1, 2), max_priority=rng.randint(1, 4))
            n_pla = len(game.players)
            fixed = rng.sample(range(n_pla), rng.randint(1, n_pla - 1))
            memory = {p: rng.randint(1, 3 if len(fixed) == 1 else 2) for p in fixed}
            strategies = {p: [random_strategy(rng, game, memory[p]) for _ in range(2)]
                          for p in fixed}
            wants = np.array([[rng.choice((-1, 0, 1)) for _ in range(n_pla)]
                              for _ in game.topologies])
            got = _closed_walks(game, strategies, [wants])[:, 0]
            for b in range(2):
                for ti, t in enumerate(game.topologies):
                    want = residual_closed_walk(
                        game, {p: strategies[p][b] for p in fixed}, t,
                        {q: int(w) for q, w in enumerate(wants[ti]) if w >= 0})
                    assert got[b, ti] == want, (b, t, wants[ti])

    @staticmethod
    def _decide(succ, prio, wants):
        game = _graph_game(succ, prio)
        return bool(_closed_walks(game, {0: [constant_strategy(game, "0")]}, [[wants]])[0, 0, 0])

    def test_long_cycle_needs_the_whole_closure(self):
        # 0 -> 1 -> ... -> 6 -> 0: the only closed walk has length 7
        ring = [(s + 1) % 7 for s in range(7)]
        succ = [(r, r) for r in ring]
        assert self._decide(succ, [[0] + [1] * 6, [1] * 7], [0, -1])
        assert self._decide(succ, [[1] * 6 + [0], [1] * 7], [0, -1])

    def test_minimum_must_hold_on_the_whole_walk(self):
        # 0 <-> 1 and 1 -> 1: every closed walk sees priority 1
        succ = [(1, 1), (0, 1)]
        assert not self._decide(succ, [[2, 1], [0, 0]], [0, -1])
        # 0 <-> 1 and 0 -> 0: the walk 0, 0, ... has minimum 2
        succ = [(1, 0), (0, 0)]
        assert self._decide(succ, [[2, 1], [0, 0]], [0, -1])

    def test_good_cycle_must_be_reachable(self):
        # start 0 loops on priority 1; node 1 loops on 0 but cannot be reached
        succ = [(0, 0), (1, 0)]
        assert not self._decide(succ, [[1, 0], [0, 0]], [0, -1])
        assert self._decide(succ, [[1, 0], [0, 0]], [1, -1])

    def test_wanted_rows_need_one_common_cycle(self):
        # 0 -> 1 or 2; node 1 loops, even for p0 only; node 2 loops, even for p1 only
        prio = [[1, 0, 1], [1, 1, 0]]
        succ = [(1, 2), (1, 1), (2, 2)]
        assert self._decide(succ, prio, [0, 1])
        assert self._decide(succ, prio, [1, 0])
        assert not self._decide(succ, prio, [0, 0])
        # joined 1 <-> 2, one cycle through both is even for both
        succ = [(1, 2), (1, 2), (1, 2)]
        assert self._decide(succ, prio, [0, 0])

    # (players, states, memory of each fixed player): 7, 8, 9, 16, 17, 64 and
    # 72 nodes, on both sides of each byte of a bit row
    SHAPES = {7: (2, 7, (1,)), 8: (2, 4, (2,)), 9: (3, 3, (3, 1)), 16: (2, 8, (2,)),
              17: (2, 17, (1,)), 64: (2, 16, (4,)), 72: (3, 8, (3, 3))}

    @pytest.mark.parametrize("n_nodes", sorted(SHAPES))
    def test_bit_rows_match_the_float_closure(self, n_nodes):
        """Random batches against the reference kernel, and against brute force up to 9 nodes.

        Each call decides a stack of three patterns with unconstrained
        entries, which must equal three calls of one pattern each."""
        n_pla, n_states, memory = self.SHAPES[n_nodes]
        rng = random.Random(n_nodes)
        for _ in range(6 if n_nodes <= 17 else 2):
            game = random_mtg(rng, n_players=n_pla, n_states=n_states, n_topologies=2,
                              max_priority=rng.randint(2, 5))
            strategies = {p: [random_strategy(rng, game, m) for _ in range(5)]
                          for p, m in enumerate(memory)}
            stack = np.array([[[rng.choice((-1, 0, 1)) for _ in range(n_pla)]
                               for _ in game.topologies] for _ in range(3)])
            got = _closed_walks(game, strategies, stack)
            idx = compile_tables(game)
            tables = [_stacked(game, strategies[p]) if p in strategies else None
                      for p in range(n_pla)]
            rows = [np.arange(5) if p in strategies else None for p in range(n_pla)]
            for k, wants in enumerate(stack):
                want = float_closed_walk_exists(idx.delta, idx.prio, tables, rows, idx.initial,
                                                idx.n_actions, wants)
                assert np.array_equal(got[:, k], want), (k, wants)
                assert np.array_equal(_closed_walks(game, strategies, [wants])[:, 0], want)
                if n_nodes > 9:
                    continue
                for b in range(5):
                    for ti, t in enumerate(game.topologies):
                        assert want[b, ti] == residual_closed_walk(
                            game, {p: strategies[p][b] for p in strategies}, t,
                            {q: int(w) for q, w in enumerate(wants[ti]) if w >= 0})

    def test_arguments_are_checked(self):
        game = random_mtg(random.Random(64), n_players=2)
        idx = compile_tables(game)
        tables = _decode(StrategyBlock(game, 1), np.arange(3))
        stack = np.zeros((1, *idx.prio.shape[:2]), dtype=int)
        for pairs, rows, wants in (([None, None], [None, None], stack),
                                   ([tables, tables], [np.arange(3), np.arange(2)], stack),
                                   ([tables], [np.arange(3)], stack),
                                   ([tables, None], [np.arange(3), None], stack[0]),
                                   ([tables, None], [np.arange(3), None], stack[:, :, :1])):
            with pytest.raises(ValueError):
                _kernels.closed_walk_exists(idx.delta, idx.prio, pairs, rows, idx.initial,
                                            idx.n_actions, wants)
        # the same call with the stack itself is well formed: one int64 mask per graph
        masks = _kernels.closed_walk_exists(idx.delta, idx.prio, [tables, None],
                                            [np.arange(3), None], idx.initial, idx.n_actions, stack)
        assert masks.shape == (3, 1) and masks.dtype == np.int64
