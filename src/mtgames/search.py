"""Bounded-memory existence search with exact verification of every candidate.

Profiles are enumerated by per-player memory-size vectors, ordered by total
memory and then componentwise, i.e. by ``(sum, vector)``. Within a size
vector they come in tiles: each player's canonical strategies are cut into
chunks of ``round(CHUNK_CAP ** (1 / n))``, the tile of the outer player
changes slowest, and within a tile profiles are in lexicographic order of
the per-player strategy indices, first player most significant. In router's
(2, 2) block, for example, (blue 1, red 0) comes before (blue 0, red 362).

Candidates are screened in chunks, in the calling thread. Each path yields
one shape in enumeration order, a chunk with its screened rows and their
topology bitmasks, and one result loop reads them all and decides the
budget. A one-player game's chunks are the kept strategies of index ranges
that ``_kernels.sweep_block`` filters and simulates in one call. Whether
such a candidate survives depends on its winning set w alone: a GNE's w is
the set of topologies the player can win one at a time, a target's w is its
target, and a CNE's w has no winnable one-topology extension. ``DeviationOracle``
decides these at unbounded memory, in at most T + 1 questions for GNE and T
per distinct w for CNE. When the one GNE or target set cannot be won, the
sweep only counts each range's canonical strategies with
``_kernels.canonical_range`` and simulates none. The README's
``find gne fig3.game --memory 3`` takes this path; its 5,043,816 candidates
take 90–100 ms in process on a 2-core x86-64 VM, against 1.5 s when each
was simulated.

The multi-player questions of the GNE and the target search are residual
questions that depend on the other players' strategies alone, so
``_kernels.closed_walk_exists`` decides each once per tuple of strategies
and search. A GNE candidate survives iff every player's winning set equals
the set the player can win alone, which is exact. A row's play is a closed
walk of each player's residual graph with, in each topology, the parity
pattern (who loses) its targets or, for a GNE, its alone sets force; so a
row is simulated only if each player's table of patterns admits it. A
2-player GNE search screens a size vector only from ``_SCREEN_ROWS`` rows,
its measured break-even, and takes a screened window's alone sets from its
table; with three players the tables cost more than the rows they spare.
One kernel call decides a window of consecutive chunks of one block, at
most ``_WINDOW`` strategies, the first time a chunk of it is read, so a
budgeted search screens at most one window past the chunks it reaches.
Router's ``find target --memory 2`` decides its 8,208 residual graphs in 6
calls. The CNE search keeps a memoryless-deviation prefilter, a necessary
condition that rests on the same fact: each memoryless deviation is
simulated once per tuple of the other players' strategies, in a tile with
the deviator's chunk swapped for the memoryless block. It is skipped when
that block is larger than one player's tile side. No row past the budget is
simulated. Whatever the search returns has passed the full equilibrium
check, so a found profile re-verifies; absence after exhausting the space is
NOT a proof of non-existence beyond the memory bound, as the result notes.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .core import InputError, Mtg, compile_tables
from .equilibria import DeviationOracle, EquilibriumReport, check_cne, check_gne
from .reductions import target_tuple
from .strategy import Profile, StrategyBlock, constant_strategy, wintop_map

CHUNK_CAP = 1 << 17
_SMALL_BLOCK = 1 << 20
_SWEEP_RANGE = 1 << 16  # block indices per one-player sweep_block call
_WINDOW = 4096  # strategies per one-fixed-player closed-walk screen call
_SCREEN_ROWS = 1 << 14  # rows of a size vector from which a 2-player GNE screen pays

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
class _PlayerChunk:
    """One player's canonical strategies in a chunk: block indices and (B, M, S) tables.

    The one-player sweep's chunks carry no tables: their strategies were
    simulated inside ``_kernels.sweep_block``, if at all. A multi-player
    search reads each block a window of consecutive chunks at a time, at most
    ``_WINDOW`` strategies. A chunk's tables are rows ``at`` onwards of its
    ``window``, the window's (update, act, key, screens) tuple: key is its
    (memory size, window number) and screens holds the closed-walk screens
    that fix it first (see ``_walk_masks``). The search keeps screens by key
    across size vectors, so each is computed once; they hold no chunk, so
    chunks are freed by reference counting alone.
    """

    indices: np.ndarray
    upd: np.ndarray | None
    act: np.ndarray | None
    window: tuple | None = None
    at: int = 0


@dataclass
class _Chunk:
    """The cross product of one chunk per player; row-major, the first player slowest."""

    sizes: tuple[int, ...]
    per_player: list[_PlayerChunk]

    def __post_init__(self) -> None:
        self.lens = tuple(len(pc.indices) for pc in self.per_player)
        self.batch = math.prod(self.lens)

    def positions(self, rows, players=None) -> list:
        """Each player's (or each of ``players``') chunk position in ``rows``."""
        pos = np.unravel_index(rows, self.lens)
        return [pos[p] for p in (range(len(pos)) if players is None else players)]

    def co_index(self, rows, player: int) -> np.ndarray:
        """Per row: the row-major index of the other players' chunk positions."""
        co = [q for q in range(len(self.lens)) if q != player]
        return np.ravel_multi_index(self.positions(rows, co), [self.lens[q] for q in co])


def _tile_side(n_players: int) -> int:
    """Strategies per player in a tile of ``_candidate_chunks``: about ``CHUNK_CAP`` rows a tile."""
    return max(4, int(round(CHUNK_CAP ** (1.0 / n_players))))


def _block_chunks(block: StrategyBlock, side: int, screens: dict):
    """The block's chunks of ``side`` indices, read one window of chunks at a time.

    A window's screens are kept in ``screens`` by its key, so they outlive
    the chunks of a block that streams, which are read again per size vector.
    """
    width = side * max(1, _WINDOW // side)
    for indices, upd, act in block.canonical_chunks(chunk_size=width):
        key = (block.m, int(indices[0]) // width)
        window = (upd, act, key, screens.setdefault(key, {}))
        cuts = [0, *(np.flatnonzero(np.diff(indices // side)) + 1).tolist(), len(indices)]
        for lo, hi in itertools.pairwise(cuts):
            yield _PlayerChunk(indices[lo:hi], upd[lo:hi], act[lo:hi], window, lo)


def _nested(sizes: tuple[int, ...], chunks_of, acc: tuple = ()):
    """Every cross product of one chunk per player, the first player slowest."""
    if len(acc) == len(sizes):
        yield _Chunk(sizes=sizes, per_player=list(acc))
        return
    for pc in chunks_of(sizes[len(acc)]):
        yield from _nested(sizes, chunks_of, acc + (pc,))


def _candidate_chunks(game: Mtg, bound: int):
    """The search's tiles, in enumeration order, for every size vector up to ``bound``.

    A block of at most ``_SMALL_BLOCK`` indices is decoded once per search
    and shared by every size vector and player that reads it; its windows
    are still screened only when read. A larger block streams, and an inner
    player re-filters it per outer chunk, which is the price of lazy
    enumeration.
    """
    side, lists, screens = _tile_side(len(game.players)), {}, {}

    def chunks_of(m: int):
        block = StrategyBlock(game, m)
        if block.total > _SMALL_BLOCK:
            return _block_chunks(block, side, screens)
        if m not in lists:
            lists[m] = list(_block_chunks(block, side, screens))
        return lists[m]

    for sizes in _size_vectors(len(game.players), bound):
        for chunk in _nested(sizes, chunks_of):
            if chunk.batch:
                yield chunk


def _wintop_masks(idx_game, chunk: _Chunk, rows: np.ndarray | None = None,
                  limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Rows of ``chunk`` and their (rows, players) topology masks, as the kernel returns them.

    Each player's chunk tables go to ``_kernels.simulate_min_even`` once,
    with every row's positions in them. ``rows``, ascending, are the rows to
    simulate, all of them by default; with ``limit``, none from ``limit`` on is.
    """
    rows = np.arange(chunk.batch) if rows is None else rows
    if limit is not None:
        rows = rows[:np.searchsorted(rows, limit)]
    if not len(rows):
        return rows, np.zeros((0, len(chunk.lens)), dtype=np.int64)
    tables = [(pc.upd, pc.act) for pc in chunk.per_player]
    return rows, _kernels.simulate_min_even(idx_game.delta, idx_game.prio, tables, idx_game.initial,
                                            idx_game.n_actions, rows=chunk.positions(rows))


def _walk_masks(idx_game, chunk: _Chunk, fixed: list[int], wants: np.ndarray) -> np.ndarray:
    """``_kernels.closed_walk_exists``'s (tuples, K) masks for the stack of K patterns ``wants``.

    The players ``fixed`` play one strategy each from their chunks and the
    others are free; tuples are in row-major order of the fixed players'
    chunk positions. Each answer is kept for the whole search in the first
    fixed player's window: with one fixed player, the kernel decides that
    window the first time; with more, each tuple of chunks.
    """
    pcs = [chunk.per_player[q] for q in fixed]
    whole, screens = len(fixed) == 1, pcs[0].window[3]
    key = (*fixed, wants.tobytes(), *(pc.window[2] for pc in pcs[1:]),
           *(() if whole else (pc.at for pc in pcs)))
    if key not in screens:
        pairs = [pcs[0].window[:2]] if whole else [(pc.upd, pc.act) for pc in pcs]
        tables = [None] * len(chunk.per_player)
        rows = [None] * len(chunk.per_player)
        grids = np.indices([len(upd) for upd, _ in pairs]).reshape(len(fixed), -1)
        for q, pair, grid in zip(fixed, pairs, grids):
            tables[q], rows[q] = pair, grid
        screens[key] = _kernels.closed_walk_exists(idx_game.delta, idx_game.prio, tables, rows,
                                                   idx_game.initial, idx_game.n_actions, wants)
    masks = screens[key]
    return masks[pcs[0].at:pcs[0].at + len(pcs[0].indices)] if whole else masks


def _alone_masks(idx_game, chunk: _Chunk, player: int,
                 patterns: np.ndarray | None = None) -> np.ndarray:
    """Per tuple of the other players' chunk positions: the topologies ``player`` can win alone.

    A screened 2-player window's table of the 4 ``patterns`` holds them: the
    other player's columns where ``player`` wins, as every walk gives it one parity.
    """
    others = [q for q in range(len(chunk.lens)) if q != player]
    if patterns is not None:
        table = _walk_masks(idx_game, chunk, others, patterns)
        return table[:, 0] | table[:, 2 >> player]
    wants = np.full((1, *idx_game.prio.shape[:2]), -1)
    wants[0, :, player] = 0
    return _walk_masks(idx_game, chunk, others, wants)[:, 0]


def _admitted(idx_game, chunk: _Chunk, patterns: np.ndarray, kind: str) -> np.ndarray:
    """Whether each player's table of ``patterns`` admits a row, over the chunk's (lens) rows.

    A target row needs the one pattern its targets force, a GNE row the
    pattern its alone sets force, in every topology of its play.
    """
    n_top, n_players, _ = idx_game.prio.shape
    all_mask = (1 << n_top) - 1
    # each player's values, (..., K), shaped to broadcast over the rows
    tables = [_walk_masks(idx_game, chunk, [p], patterns).reshape(
        [n if q == p else 1 for q, n in enumerate(chunk.lens)] + [-1]) for p in range(n_players)]
    if kind == "target":
        return functools.reduce(np.logical_and, (table[..., 0] == all_mask for table in tables))
    alone = [_alone_masks(idx_game, chunk, p, patterns if n_players == 2 else None).reshape(
        [1 if q == p else n for q, n in enumerate(chunk.lens)]) for p in range(n_players)]
    bad = 0
    for k in range(len(patterns)):
        need = functools.reduce(np.bitwise_and, (all_mask & ~a if k >> q & 1 else a
                                                 for q, a in enumerate(alone)))
        bad = bad | need & ~functools.reduce(np.bitwise_and, (table[..., k] for table in tables))
    return bad == 0


def _memoryless_improvable(idx_game, chunk: _Chunk, rows: np.ndarray, player: int,
                           w: np.ndarray, dev: _PlayerChunk) -> np.ndarray:
    """Per row: whether a memoryless deviation of ``player`` wins a strict superset of ``w``.

    Necessary-condition prefilter for the CNE search: any memoryless
    deviation that already improves on a candidate disqualifies it before the
    exact analysis runs. What a deviation wins depends on the other players'
    strategies alone, so ``_wintop_masks`` simulates ``chunk`` with
    ``player``'s tile swapped for ``dev``, the memoryless block, and each row
    reads the bits of its tuple of co-strategies. Rows are compared in slices
    of ``CHUNK_CAP`` gathered bits.
    """
    swapped = _Chunk(chunk.sizes, [dev if q == player else pc
                                   for q, pc in enumerate(chunk.per_player)])
    bits = _wintop_masks(idx_game, swapped)[1][:, player].reshape(swapped.lens)
    bits = np.moveaxis(bits, player, -1).reshape(-1, len(dev.indices))
    co = chunk.co_index(rows, player)
    improvable = np.zeros(len(rows), dtype=bool)
    step = CHUNK_CAP // len(dev.indices)
    for lo in range(0, len(rows), step):
        dev_bits, mine = bits[co[lo:lo + step]], w[lo:lo + step, None]
        improvable[lo:lo + step] = (((dev_bits & mine) == mine) & (dev_bits != mine)).any(axis=1)
    return improvable


def _materialize(game: Mtg, chunk: _Chunk, b: int) -> Profile:
    return Profile(tuple(StrategyBlock(game, m).strategy_at(int(pc.indices[pos]))
                         for m, pc, pos in zip(chunk.sizes, chunk.per_player,
                                               chunk.positions(b))))


def _search(game: Mtg, memory_bound: int, kind: str, budget: int | None,
            jobs: int, targets: dict[str, frozenset[str]] | None = None) -> SearchResult:
    if memory_bound < 1:
        raise InputError(f"memory bound must be >= 1, got {memory_bound}")
    if budget is not None and budget < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    if jobs != 1:
        raise InputError(f"jobs must be 1, got {jobs}: searches run in the calling thread")
    idx_game = compile_tables(game)
    oracle = DeviationOracle(game)
    n_players = len(game.players)
    n_top = len(game.topologies)
    all_mask = (1 << n_top) - 1
    # the CNE prefilter runs when the memoryless block fits one player's tile
    # side, so that each of its kernel calls is at most one tile; it is a
    # necessary condition only, so skipping it changes what ``finalize`` is
    # asked, never the result
    block = StrategyBlock(game, 1) if kind == "cne" and n_players > 1 else None
    dev = (_PlayerChunk(*next(block.canonical_chunks(chunk_size=block.total)))
           if block is not None and block.total <= _tile_side(n_players) else None)

    target_masks = None if kind != "target" else np.array(
        [sum(1 << game.topologies.index(t) for t in targets[p]) for p in game.players],
        dtype=np.int64)

    if n_players == 1:
        # whether a candidate survives depends on its winning set alone, since
        # the one player's own strategy is what deviates: ask against a
        # placeholder, which the library builds and so needs no check
        p0 = game.players[0]
        placeholder = Profile((constant_strategy(game, game.actions[0]),))

        def can_win(mask: int) -> bool:
            return mask == 0 or oracle._ask(placeholder, p0, frozenset(
                t for i, t in enumerate(game.topologies) if mask >> i & 1))[0]

        alone = sum(1 << i for i in range(n_top) if kind == "gne" and can_win(1 << i))
        # a strategy wins every topology of its own winning set, so when the one
        # set a GNE or target candidate may have cannot be won, none survives;
        # a CNE candidate may have any maximal winnable set, and one always exists
        winnable = kind == "cne" or can_win(alone if kind == "gne" else int(target_masks[0]))

    def finalize(profile: Profile) -> EquilibriumReport | None:
        if kind == "target":
            won = wintop_map(game, profile)
            return EquilibriumReport("target", True, won, None) if won == targets else None
        report = (check_gne if kind == "gne" else check_cne)(game, profile, oracle=oracle)
        return report if report.verdict else None

    examined = 0  # rows the result loop below has counted

    def left() -> int | None:
        """Rows the budget leaves, if it is set; no row past them is simulated or read."""
        return None if budget is None else budget - examined

    # each path yields (chunk, rows, masks) in order, after the loop has counted the last one
    if n_players == 1:
        def evaluated():
            # fused enumerate-and-simulate sweep over index ranges of each block;
            # the kept strategies of a range form a one-player chunk
            for m in range(1, memory_bound + 1):
                total = StrategyBlock(game, m).total
                for lo in range(0, total, _SWEEP_RANGE):
                    hi = min(lo + _SWEEP_RANGE, total)
                    if winnable:
                        keep, bits = _kernels.sweep_block(
                            idx_game.delta, idx_game.prio, [None], 0, m, lo, hi,
                            idx_game.initial, idx_game.n_actions, limit=left())
                        kept = np.nonzero(keep)[0]
                        rows, masks = np.arange(len(kept)), bits[kept, None]
                    else:
                        # no candidate can survive: count the kept rows, simulate none
                        kept = np.nonzero(_kernels.canonical_range(
                            lo, hi, m, idx_game.prio.shape[2], idx_game.n_actions)[0])[0]
                        rows, masks = kept[:0], np.zeros((0, 1), dtype=np.int64)
                    yield _Chunk((m,), [_PlayerChunk(lo + kept, None, None)]), rows, masks
    else:
        # bit q of a screen's pattern k: player q loses; a target search asks one
        patterns = np.array([[[int(t not in targets[p]) for p in game.players]
                              for t in game.topologies]] if kind == "target" else
                            [[[k >> q & 1 for q in range(n_players)]] * n_top
                             for k in range(1 << n_players)])

        def screen(chunk: _Chunk) -> np.ndarray | None:
            """``patterns`` if the chunk is screened: a target search's every chunk, and a
            2-player GNE search's from ``_SCREEN_ROWS`` rows of its size vector."""
            return patterns if kind == "target" or (kind == "gne" and n_players == 2 and math.prod(
                StrategyBlock(game, m).total for m in chunk.sizes) >= _SCREEN_ROWS) else None

        def evaluated():
            for chunk in _candidate_chunks(game, memory_bound):
                rows = (None if screen(chunk) is None else
                        np.flatnonzero(_admitted(idx_game, chunk, patterns, kind)))
                yield (chunk, *_wintop_masks(idx_game, chunk, rows, left()))

    def survivors_of(chunk: _Chunk, rows: np.ndarray, masks: np.ndarray) -> np.ndarray:
        if kind == "target":
            return np.nonzero((masks == target_masks).all(axis=1))[0]
        ok = np.ones(len(rows), dtype=bool)
        for p in range(n_players):
            w = masks[:, p]
            if kind == "gne":
                # a player wins alone every topology she wins now, so the
                # candidate is a GNE iff each player wins all she can alone
                ok &= w == (alone if n_players == 1 else _alone_masks(
                    idx_game, chunk, p, screen(chunk))[chunk.co_index(rows, p)])
            elif n_players == 1:
                # a CNE candidate's set has no winnable one-topology extension
                ws, inverse = np.unique(w, return_inverse=True)
                ok &= np.array([all(x >> i & 1 or not can_win(x | 1 << i) for i in range(n_top))
                                for x in ws.tolist()], dtype=bool)[inverse]
            elif dev is not None and not np.all(w == all_mask):
                ok &= (w == all_mask) | ~_memoryless_improvable(idx_game, chunk, rows, p, w, dev)
        return np.nonzero(ok)[0]

    for chunk, rows, masks in evaluated():
        batch = chunk.batch if budget is None else min(chunk.batch, left())
        n = np.searchsorted(rows, batch)
        rows, masks = rows[:n], masks[:n]
        for i in survivors_of(chunk, rows, masks):
            b = int(rows[i])
            profile = _materialize(game, chunk, b)
            report = finalize(profile)
            if report is not None:
                return SearchResult("found", profile, report, examined + b + 1, memory_bound)
        examined += batch
        if left() == 0:
            return SearchResult("budget-exhausted", None, None, examined, memory_bound)
    return SearchResult("exhausted-space", None, None, examined, memory_bound,
                        note=EXHAUSTED_NOTE)


def find_gne(game: Mtg, memory_bound: int, budget: int | None = None,
             jobs: int = 1) -> SearchResult:
    """First profile (in enumeration order) that is a greedy equilibrium.

    A search runs in the calling thread, so ``jobs`` must be 1; the parameter
    goes once the benchmark harness in ``perfbench/`` stops passing it.
    """
    return _search(game, memory_bound, "gne", budget, jobs)


def find_cne(game: Mtg, memory_bound: int, budget: int | None = None,
             jobs: int = 1) -> SearchResult:
    """First profile (in enumeration order) that is a conservative equilibrium.

    ``jobs`` must be 1, as for ``find_gne``."""
    return _search(game, memory_bound, "cne", budget, jobs)


def find_profile_with_wintop(game: Mtg, targets: dict[str, frozenset[str]],
                             memory_bound: int, budget: int | None = None,
                             jobs: int = 1) -> SearchResult:
    """First profile whose winning-topology sets match the targets exactly.

    ``jobs`` must be 1, as for ``find_gne``."""
    return _search(game, memory_bound, "target", budget, jobs,
                   targets=target_tuple(game, targets))
