"""Bounded-memory existence search with exact verification of every candidate.

Profiles are enumerated by per-player memory-size vectors (ascending by total
memory, then componentwise), and within a size vector in lexicographic order
of the per-player strategy indices with the first player most significant.
Candidates are screened in batches: the simulation kernels compute every
player's winning-topology bitmask, cheap necessary conditions prune the bulk,
and only survivors reach the exact deviation analysis. Whatever the search
returns has passed the full equilibrium check, so a found profile re-verifies;
absence after exhausting the space is NOT a proof of non-existence beyond the
memory bound, and the result says so.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .core import InputError, Mtg, compile_tables
from .equilibria import (DeviationOracle, EquilibriumReport, check_cne, check_gne,
                         deviation_questions)
from .strategy import Profile, StrategyBlock, constant_strategy, wintop_map

CHUNK_CAP = 1 << 17
_SMALL_BLOCK = 1 << 20

EXHAUSTED_NOTE = ("no profile within the memory bound; absence at this bound "
                  "is not a proof of non-existence")


@dataclass
class SearchResult:
    status: str
    profile: Profile | None
    report: EquilibriumReport | None
    examined: int
    memory_bound: int
    note: str = ""


def _size_vectors(n_players: int, bound: int):
    return sorted(itertools.product(range(1, bound + 1), repeat=n_players),
                  key=lambda v: (sum(v), v))


@dataclass
class _Chunk:
    sizes: tuple[int, ...]
    per_player: list[tuple[np.ndarray, np.ndarray, np.ndarray]]  # indices, upd, act
    positions: list[np.ndarray] = field(default_factory=list)
    batch: int = 0

    def expand(self) -> None:
        lens = [len(idx) for idx, _, _ in self.per_player]
        self.batch = math.prod(lens)
        flat = np.arange(self.batch)
        suffix = 1
        positions = [None] * len(lens)
        for p in range(len(lens) - 1, -1, -1):
            positions[p] = (flat // suffix) % lens[p]
            suffix *= lens[p]
        self.positions = positions

    def tables(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return [(np.take(upd, pos, axis=0), np.take(act, pos, axis=0))
                for (_, upd, act), pos in zip(self.per_player, self.positions)]

    def strategy_index(self, b: int, p: int) -> int:
        idx, _, _ = self.per_player[p]
        return int(idx[self.positions[p][b]])

    def truncate(self, n: int) -> None:
        self.batch = n
        self.positions = [pos[:n] for pos in self.positions]


def _player_chunk_lists(game: Mtg, sizes: tuple[int, ...], cap_per_player: int):
    """Lazy nested iteration over per-player canonical chunks, outer player slowest.

    Small blocks are materialized once and reused; a huge inner block would be
    re-filtered per outer chunk, which is the price of lazy enumeration.
    """
    blocks = [StrategyBlock(game, m) for m in sizes]
    cache: dict[int, list] = {}

    def chunks_of(p: int):
        # inner players are re-iterated once per outer chunk; keep small blocks
        # materialized so the canonical filter does not rerun
        if p > 0 and blocks[p].total <= _SMALL_BLOCK:
            if p not in cache:
                cache[p] = list(blocks[p].canonical_chunks(chunk_size=cap_per_player))
            return cache[p]
        return blocks[p].canonical_chunks(chunk_size=cap_per_player)

    def rec(p: int, acc: list):
        if p == len(blocks):
            yield _Chunk(sizes=sizes, per_player=list(acc))
            return
        for indices, upd, act in chunks_of(p):
            acc.append((indices, upd, act))
            yield from rec(p + 1, acc)
            acc.pop()

    yield from rec(0, [])


def _candidate_chunks(game: Mtg, bound: int):
    n = len(game.players)
    cap = max(4, int(round(CHUNK_CAP ** (1.0 / n))))
    if n == 1:
        cap = CHUNK_CAP
    for sizes in _size_vectors(n, bound):
        for chunk in _player_chunk_lists(game, sizes, cap):
            chunk.expand()
            if chunk.batch:
                yield chunk


def _wintop_masks(idx_game, chunk: _Chunk) -> np.ndarray:
    """(batch, players) bitmask over topologies from the simulation kernel."""
    wins = _kernels.simulate_min_even(idx_game.delta, idx_game.prio, chunk.tables(),
                                      idx_game.initial, idx_game.n_actions)
    n_top = wins.shape[1]
    masks = np.zeros((chunk.batch, wins.shape[2]), dtype=np.int64)
    for t in range(n_top):
        masks |= wins[:, t, :].astype(np.int64) << t
    return masks


def _memoryless_deviation_bits(game: Mtg, idx_game, chunk: _Chunk,
                               player: int) -> np.ndarray:
    """(batch, n_dev) wintop bitmasks of every memoryless deviation of ``player``.

    Necessary-condition prefilter for multi-player searches: any memoryless
    deviation that already improves on a candidate disqualifies it before the
    exact analysis runs.
    """
    dev_block = StrategyBlock(game, 1)
    dev_idx = np.arange(dev_block.total, dtype=np.int64)
    dev_upd, dev_act = dev_block.decode(dev_idx)
    n_dev = dev_block.total
    batch = chunk.batch
    rows = np.repeat(np.arange(batch), n_dev)
    tables = []
    for p, (idx, upd, act) in enumerate(chunk.per_player):
        if p == player:
            tables.append((np.tile(dev_upd, (batch, 1, 1)), np.tile(dev_act, (batch, 1, 1))))
        else:
            pos = chunk.positions[p][rows]
            tables.append((np.take(upd, pos, axis=0), np.take(act, pos, axis=0)))
    wins = _kernels.simulate_min_even(idx_game.delta, idx_game.prio, tables,
                                      idx_game.initial, idx_game.n_actions)
    n_top = wins.shape[1]
    bits = np.zeros(batch * n_dev, dtype=np.int64)
    for t in range(n_top):
        bits |= wins[:, t, player].astype(np.int64) << t
    return bits.reshape(batch, n_dev)


def _materialize(game: Mtg, chunk: _Chunk, b: int) -> Profile:
    strats = []
    for p, m in enumerate(chunk.sizes):
        block = StrategyBlock(game, m)
        strats.append(block.strategy_at(chunk.strategy_index(b, p)))
    return Profile(tuple(strats))


def _search(game: Mtg, memory_bound: int, kind: str, budget: int | None,
            jobs: int, targets: dict[str, frozenset[str]] | None = None) -> SearchResult:
    if memory_bound < 1:
        raise InputError(f"memory bound must be >= 1, got {memory_bound}")
    if budget is not None and budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    if jobs < 1:
        raise InputError(f"jobs must be >= 1, got {jobs}")
    idx_game = compile_tables(game)
    oracle = DeviationOracle(game)
    n_players = len(game.players)
    n_top = len(game.topologies)
    all_mask = (1 << n_top) - 1

    target_masks = None
    if kind == "target":
        target_masks = np.array(
            [sum(1 << game.topologies.index(t) for t in targets[p]) for p in game.players],
            dtype=np.int64)

    single_table = None
    if n_players == 1 and kind != "target":
        # whether a winning set w is stable depends on w alone, since the one
        # player's own strategy is what deviates: ask against a placeholder
        p0 = game.players[0]
        placeholder = Profile((constant_strategy(game, game.actions[0]),))
        single_table = np.zeros(1 << n_top, dtype=bool)
        for w in range(1 << n_top):
            wset = frozenset(t for i, t in enumerate(game.topologies) if w >> i & 1)
            single_table[w] = not any(
                oracle.can_win(placeholder, p, targets)[0]
                for p, targets in deviation_questions(game, kind, {p0: wset}))

    def survivors_of(chunk: _Chunk, masks: np.ndarray) -> np.ndarray:
        if kind == "target":
            ok = np.ones(chunk.batch, dtype=bool)
            for p in range(n_players):
                ok &= masks[:, p] == target_masks[p]
            return np.nonzero(ok)[0]
        ok = np.ones(chunk.batch, dtype=bool)
        for p in range(n_players):
            w = masks[:, p]
            full = w == all_mask
            if bool(np.all(full)):
                continue
            dev_bits = _memoryless_deviation_bits(game, idx_game, chunk, p)
            if kind == "gne":
                bad = (dev_bits & ~w[:, None]) != 0
            else:
                covers = (dev_bits & w[:, None]) == w[:, None]
                bad = covers & (dev_bits != w[:, None])
            ok &= full | ~bad.any(axis=1)
        return np.nonzero(ok)[0]

    def finalize(profile: Profile) -> EquilibriumReport | None:
        if kind == "target":
            won = wintop_map(game, profile)
            if any(won[p] != targets[p] for p in game.players):
                return None
            return EquilibriumReport(kind="target", verdict=True,
                                     wintop={p: targets[p] for p in game.players},
                                     witness=None)
        report = (check_gne if kind == "gne" else check_cne)(game, profile, oracle=oracle)
        return report if report.verdict else None

    if n_players == 1:
        # fused enumerate-and-simulate sweep; no cross products needed. Each
        # chunk is one task for the thread pool; the simulation walks it in
        # sub-batches of _kernels.SUB_BATCH rows.
        sweep_chunk = 1 << 16
        def tasks():
            for m in range(1, memory_bound + 1):
                block = StrategyBlock(game, m)
                for lo in range(0, block.total, sweep_chunk):
                    yield m, lo, min(lo + sweep_chunk, block.total)

        def evaluate_sweep(task):
            m, lo, hi = task
            keep, bits = _kernels.sweep_block(idx_game.delta, idx_game.prio, [None],
                                              0, m, lo, hi, idx_game.initial,
                                              idx_game.n_actions)
            return task, keep, bits

        pool = ThreadPoolExecutor(max_workers=jobs) if jobs > 1 else None
        stream = pool.map(evaluate_sweep, tasks()) if pool else map(evaluate_sweep, tasks())
        examined = 0
        try:
            for (m, lo, _), keep, bits in stream:
                kept = np.nonzero(keep)[0]
                hit_budget = budget is not None and examined + len(kept) >= budget
                if budget is not None:
                    kept = kept[: budget - examined]
                w = bits[kept]
                ok = w == target_masks[0] if kind == "target" else single_table[w]
                block = StrategyBlock(game, m)
                for pos in np.nonzero(ok)[0]:
                    profile = Profile((block.strategy_at(int(lo + kept[pos])),))
                    report = finalize(profile)
                    if report is not None:
                        return SearchResult("found", profile, report,
                                            examined + int(pos) + 1, memory_bound)
                examined += len(kept)
                if hit_budget:
                    return SearchResult("budget-exhausted", None, None,
                                        examined, memory_bound)
            return SearchResult("exhausted-space", None, None, examined, memory_bound,
                                note=EXHAUSTED_NOTE)
        finally:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)

    examined = 0
    chunks = _candidate_chunks(game, memory_bound)

    def evaluate(chunk: _Chunk):
        return chunk, _wintop_masks(idx_game, chunk)

    if jobs > 1:
        pool = ThreadPoolExecutor(max_workers=jobs)
        stream = pool.map(evaluate, chunks)
    else:
        pool = None
        stream = map(evaluate, chunks)
    try:
        for chunk, masks in stream:
            if budget is not None and examined + chunk.batch > budget:
                keep = budget - examined
                chunk.truncate(keep)
                masks = masks[:keep]
                if keep == 0:
                    return SearchResult("budget-exhausted", None, None, examined, memory_bound)
            for b in survivors_of(chunk, masks):
                profile = _materialize(game, chunk, int(b))
                report = finalize(profile)
                if report is not None:
                    return SearchResult("found", profile, report,
                                        examined + int(b) + 1, memory_bound)
            examined += chunk.batch
            if budget is not None and examined >= budget:
                return SearchResult("budget-exhausted", None, None, examined, memory_bound)
        return SearchResult("exhausted-space", None, None, examined, memory_bound,
                            note=EXHAUSTED_NOTE)
    finally:
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def find_gne(game: Mtg, memory_bound: int, budget: int | None = None,
             jobs: int = 1) -> SearchResult:
    """First profile (in enumeration order) that is a greedy equilibrium."""
    return _search(game, memory_bound, "gne", budget, jobs)


def find_cne(game: Mtg, memory_bound: int, budget: int | None = None,
             jobs: int = 1) -> SearchResult:
    """First profile (in enumeration order) that is a conservative equilibrium."""
    return _search(game, memory_bound, "cne", budget, jobs)


def find_profile_with_wintop(game: Mtg, targets: dict[str, frozenset[str]],
                             memory_bound: int, budget: int | None = None,
                             jobs: int = 1) -> SearchResult:
    """First profile whose winning-topology sets match the targets exactly."""
    for p in game.players:
        if p not in targets:
            raise InputError(f"missing target set for player {p!r}")
    return _search(game, memory_bound, "target", budget, jobs, targets=targets)
