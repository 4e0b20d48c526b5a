"""Batched finite-memory strategy simulation kernels.

Everything expensive in this package funnels through one operation: simulate a
large batch of Moore strategy combinations over the indexed transition tables
and return, per combination and player, the topologies in which that player's
minimum infinitely-visited priority is even. The brute-force oracles and the
bounded search both ride on it. Both batch kernels answer in topology masks:
int64, bit t for topology t, the one form of a set of topologies in the search.

There is one simulation walk, in ``simulate_min_even``. The sweep
``sweep_block``, which varies one player's strategy over an index range, only
filters that range with ``canonical_range``, the one canonicity test, and
hands the kept rows to it. The walk follows a functional graph: per candidate
row the strategy tables fold into one next-position table over product
positions (players' memories, then the game state); the walkers of all rows
and topologies sit side by side in one flat array, and each step is one
``np.take`` of the next positions plus one ``np.take`` and one ``np.minimum``
that fold every player's priority at once. Callers pass each player's
distinct tables once, with per-row indices into them, and the key shares of
each distinct table are computed once. Rows go in sub-batches of
``SUB_BATCH`` so the arrays stay cache-sized. A sub-batch walks in rounds of
doubling length and stops once every walker's lasso has closed (Brent, "An
improved Monte Carlo factorization algorithm", BIT 20, 1980); with
``window`` the number of product positions, a walker still open when the
rounds reach ``window`` steps is on its cycle, and the next ``window`` steps
cover it. Either way the minimum priority folded over the cycle equals the
lasso-based computation. The lasso path in ``strategy.outcome`` stays an
independent implementation, cross-checked in the tests.

The multi-player searches also ask questions that fix only some players'
strategies: can the free players make the play end with these parities?
``closed_walk_exists`` answers a stack of them for a batch of residual
graphs at once, on packed bit rows closed by Warshall's algorithm, and
``equilibria.can_deviator_win_set`` is its exact cross-check.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

import numpy as np

SUB_BATCH = 1 << 13


HAS_NUMBA = False  # read only by perfbench/worker.py, which records it in its machine info


def active_backend() -> str:
    return "numpy"  # read only by perfbench/worker.py, which records it in its machine info


def simulate_min_even(delta: np.ndarray, prio: np.ndarray,
                      tables: list[tuple[np.ndarray, np.ndarray]],
                      s0: int, n_actions: int, *, rows: list | None = None) -> np.ndarray:
    """Simulate a batch of strategy combinations; return topology masks (batch, player).

    ``tables`` holds one ``(update, act)`` pair per player, each of shape
    ``(D_p, M_p, S)``: the distinct strategies player ``p`` plays in the batch.
    ``rows[p]`` says which one each row plays: an index vector into both
    tables, or an ``(update_index, act_index)`` pair of vectors. A table
    without an index (``None``, or ``rows=None`` for every player) holds the
    one strategy every row plays. The batch has as many rows as the index
    vectors, one if there are none. Bit ``t`` of ``masks[b, p]`` is set iff
    under combination ``b`` in topology ``t`` the minimum priority player
    ``p`` sees infinitely often is even.

    Each distinct table's share of the step keys is computed once; a row's
    keys are then one gather per indexed table. The walk takes ``SUB_BATCH``
    rows at a time, as the module docstring describes, and folds every
    player's minimum at once over one table of priorities, a row per flat
    walker position and a column per player.
    """
    n_top, n_pla, n_states = prio.shape
    if len(tables) != n_pla or (rows is not None and len(rows) != n_pla):
        raise ValueError(f"expected {n_pla} strategy tables and row indices")
    picks = [r if isinstance(r, tuple) else (r, r) for r in rows or [None] * n_pla]
    lengths = {len(i) for pick in picks for i in pick if i is not None}
    if len(lengths) > 1 or any(index is None and len(table) != 1
                               for pair, pick in zip(tables, picks)
                               for table, index in zip(pair, pick)):
        raise ValueError("row indices must share one length, and a table without "
                         "them must hold one strategy")
    batch = lengths.pop() if lengths else 1
    mem_sizes = [u.shape[1] for u, _ in tables]
    window = n_states * math.prod(mem_sizes)

    # product position ((mem_0 * M_1 + mem_1) * ...) * S + s under joint action j
    # has key (target + s) * n_joint + j; each player's share of the key comes
    # from one of its (memory, state) cells. Walker (row, topology) sits at
    # flat index (row * window + position) * top + topology, and lookup[key, t]
    # is its next flat index less the row's offset.
    n_joint = delta.shape[2]
    itype = np.int32 if max(SUB_BATCH, n_joint) * n_top * window < 2 ** 31 else np.int64
    here, joint = np.divmod(np.arange(window * n_joint), n_joint)
    states_at = here % n_states
    lookup = ((here - states_at + delta[:, states_at, joint]) * n_top
              + np.arange(n_top)[:, None]).T.astype(itype)
    states_at = states_at[::n_joint]
    base_key = states_at.astype(itype) * n_joint
    cells = [(m * n_states + np.arange(n_states)).ravel()
             for m in np.indices(mem_sizes).reshape(n_pla, -1, 1)]

    # key shares over the product positions, (D, window) per distinct table,
    # with the per-row index into them
    indexed = []
    for p, ((u, a), (iu, ia)) in enumerate(zip(tables, picks)):
        u_share = np.multiply(u.reshape(len(u), -1),
                              n_states * n_joint * math.prod(mem_sizes[p + 1:]), dtype=itype)
        a_share = np.multiply(a.reshape(len(a), -1), n_actions ** (n_pla - 1 - p), dtype=itype)
        parts = [(u_share + a_share, iu)] if iu is ia else [(u_share, iu), (a_share, ia)]
        for share, index in parts:
            share = np.take(share, cells[p], axis=1)
            if index is None:
                base_key = base_key + share[0]  # one strategy shared by every row
            else:
                indexed.append((share, index))

    # each walker's priorities, one column per player, over the flat indices
    # of a full sub-batch; a shorter one uses a prefix
    narrow = np.promote_types(np.min_scalar_type(int(prio.min())),
                              np.min_scalar_type(int(prio.max())))
    per_walker = prio[:, :, states_at].transpose(2, 0, 1).astype(narrow)
    full = (min(batch, SUB_BATCH), *per_walker.shape)
    table = np.broadcast_to(per_walker, full).reshape(-1, n_pla)

    masks = np.empty((batch, n_pla), dtype=np.int64)
    bit = 1 << np.arange(n_top, dtype=np.int64)  # topology t's bit in a mask
    for lo in range(0, batch, SUB_BATCH):
        hi = min(lo + SUB_BATCH, batch)
        key = np.broadcast_to(base_key, (hi - lo, window))
        for share, index in indexed:
            key = key + np.take(share, index[lo:hi], axis=0)
        offsets = np.arange(hi - lo, dtype=itype)[:, None] * (window * n_top)
        nxt = (np.take(lookup, key, axis=0).reshape(hi - lo, -1) + offsets).ravel()
        start = (offsets + (s0 * n_top + np.arange(n_top, dtype=itype))).ravel()
        minima, _ = _fold_cycles(nxt, start, table, window)
        masks[lo:hi] = bit @ (minima % 2 == 0).reshape(hi - lo, n_top, n_pla)
    return masks


def _fold_cycles(nxt: np.ndarray, pos: np.ndarray, table: np.ndarray,
                 window: int) -> tuple[np.ndarray, int]:
    """Per walker, the column-wise minimum of ``table[v]`` over the nodes ``v`` on its cycle.

    ``nxt`` is a functional graph whose every walk from ``pos`` closes its
    lasso (tail plus cycle) within ``window`` nodes, and ``table`` has one
    row per node. Returns the ``(walkers, columns)`` minima and the number of
    steps walked, at most ``2 * window``.

    The walk goes in rounds of 1, 2, 4, ... steps (Brent's cycle detection).
    A round starts from a mark, each walker's position then, and folds its
    minima afresh; a walker that steps onto its mark again has its mark on
    its cycle, and a round that long has covered that cycle. Such a walker
    closes again in every later, longer round. The walk stops after the first
    round in which every walker closed. Once the rounds would pass ``window``
    steps, the walkers still open go on alone: after ``window`` steps they
    are on their cycles, and the next ``window`` steps cover them.
    """
    walked, length = 0, 1
    while walked + length <= window:
        mark = pos
        closed = np.zeros(pos.shape, dtype=bool)
        for step in range(length):
            pos = np.take(nxt, pos)
            closed |= pos == mark
            here = np.take(table, pos, axis=0)
            minima = here if step == 0 else np.minimum(minima, here, out=minima)
        walked += length
        if closed.all():
            return minima, walked
        length *= 2
    still = np.nonzero(~closed)[0]
    pos = pos[still]
    for _ in range(window - walked):
        pos = np.take(nxt, pos)
    for step in range(window):
        pos = np.take(nxt, pos)
        here = np.take(table, pos, axis=0)
        still_minima = here if step == 0 else np.minimum(still_minima, here, out=still_minima)
    minima[still] = still_minima
    return minima, 2 * window


def closed_walk_exists(delta: np.ndarray, prio: np.ndarray,
                       tables: list[tuple[np.ndarray, np.ndarray] | None], rows: list,
                       s0: int, n_actions: int, wants: np.ndarray) -> np.ndarray:
    """Decide a batch of residual graphs under K patterns; return topology masks (batch, K).

    Players with an ``(update, act)`` pair in ``tables``, each of shape
    ``(D_p, M_p, S)``, are fixed: ``rows[p]`` is an index vector saying which
    of them graph ``b`` fixes. Players whose entry is ``None`` are free. A
    graph of topology ``t`` has a node per (fixed players' memories, state)
    and an edge per free players' joint action. ``wants`` is a ``(K, T, n)``
    stack of patterns: ``wants[k, t, q]`` is 0 or 1 for the parity wanted of
    player ``q``'s minimum priority in topology ``t``, or -1 for no
    constraint. Bit ``t`` of ``masks[b, k]`` is set iff graph ``b`` has a
    closed walk, reachable from the start, whose minimum priority has the
    wanted parity of pattern ``k`` for every constrained player of ``t``.

    This is the SCC emptiness test of Emerson and Lei ("Modalities for model
    checking", 1987). A graph's successor sets, the OR of the free players'
    choices, are packed bit rows of ``ceil(N / 8)`` bytes (node ``v`` is bit
    ``v % 8`` of byte ``v // 8``), closed by Warshall's algorithm: N steps of
    ``R |= bit_k(R) & R[k]``. A vector of candidate minima ``e``, one of the
    wanted parity per constrained player, keeps the nodes whose priorities
    are at least its ``e``; it is met iff a reachable node shares a kept
    cycle with a node of priority ``e_q`` for each ``q`` (with one such
    player: a reachable hit on a cycle). Patterns share adjacency and closures.
    Graphs go in sub-batches of at most ``64 * SUB_BATCH`` node pairs.
    """
    n_top, n_pla, n_states = prio.shape
    fixed = [p for p, pair in enumerate(tables) if pair is not None]
    free = [p for p, pair in enumerate(tables) if pair is None]
    if (not fixed or len(tables) != n_pla or np.shape(wants)[1:] != (n_top, n_pla)
            or {len(rows[p]) for p in fixed} != {len(rows[fixed[0]])}):
        raise ValueError(f"expected {n_pla} tables, at least one fixed, with row indices of "
                         f"one length, and a (K, {n_top}, {n_pla}) stack of wanted parities")
    batch = len(rows[fixed[0]])
    mem_sizes = [tables[p][0].shape[1] for p in fixed]
    n_nodes = n_states * math.prod(mem_sizes)

    # node (mem_0 * M_1 + mem_1) * ... * S + s; each fixed player's share of
    # the successor's memory and of the (state, joint action) key into
    # delta[t] comes from one of its (memory, state) cells
    state = np.arange(n_nodes) % n_states
    digits = np.indices(mem_sizes).reshape(len(fixed), -1)[:, np.arange(n_nodes) // n_states]
    next_node, key = 0, state * delta.shape[2]
    for f, p in enumerate(fixed):
        upd, act = (t.reshape(len(t), -1)[:, digits[f] * n_states + state] for t in tables[p])
        next_node = next_node + np.take(upd * (n_states * math.prod(mem_sizes[f + 1:])),
                                        rows[p], axis=0)
        key = key + np.take(act * n_actions ** (n_pla - 1 - p), rows[p], axis=0)
    shares = [0]  # the free players' shares of the joint action, one per joint choice
    for p in free:
        shares = [c + a * n_actions ** (n_pla - 1 - p) for c in shares for a in range(n_actions)]
    bit = np.packbits(np.eye(n_nodes, dtype=bool), axis=1, bitorder="little")  # node -> bit row

    out = np.zeros((batch, len(wants), n_top), dtype=bool)
    sub = max(1, SUB_BATCH * 64 // (n_nodes * n_nodes))
    for t in range(n_top):
        at = prio[t][:, state].tolist()  # per player, per node
        # per set of kept nodes, a bitmask, the (pattern, hit nodes per
        # constrained player) of each candidate vector that keeps it
        tests: dict = {}
        for k, want in enumerate(wants[:, t].tolist()):
            cons = [q for q, w in enumerate(want) if w >= 0]
            out[:, k, t] = not cons  # a finite graph always has a reachable cycle
            masks = [[(sum(1 << u for u, x in enumerate(at[q]) if x >= v),
                       sum(1 << u for u, x in enumerate(at[q]) if x == v))
                      for v in sorted({v for v in at[q] if v % 2 == want[q]})] for q in cons]
            for e in itertools.product(*masks) if cons else ():
                keep = functools.reduce(operator.and_, (ge for ge, _ in e))
                hits = [keep & eq for _, eq in e]
                if all(hits):
                    tests.setdefault(keep, []).append((k, sorted(
                        ([u for u in range(n_nodes) if h >> u & 1] for h in hits), key=len)))
        for lo in range(0, batch, sub):
            hi = min(lo + sub, batch)
            adj = functools.reduce(np.bitwise_or, (np.take(bit, next_node[lo:hi] + np.take(
                delta[t], key[lo:hi] + c), axis=0) for c in shares))
            full = _warshall(adj, range(n_nodes))
            reach = np.unpackbits(full[:, s0], axis=1, count=n_nodes, bitorder="little")
            for keep, asks in tests.items():
                asks = [(out[lo:hi, k, t], hits) for k, hits in asks if not out[lo:hi, k, t].all()]
                if not asks:
                    continue  # every graph has met these patterns already
                nodes = [u for u in range(n_nodes) if keep >> u & 1]
                closed = full if len(nodes) == n_nodes else _warshall(
                    adj & np.frombuffer(keep.to_bytes(adj.shape[2], "little"), np.uint8), nodes)
                for found, (first, *others) in asks:
                    for u in first:  # reachable, and on a cycle with a hit of each other player
                        good = reach[:, u]
                        for hits in others or [[u]]:
                            good = good & functools.reduce(np.bitwise_or, (
                                closed[:, u, v >> 3] >> (v & 7) & closed[:, v, u >> 3] >> (u & 7)
                                for v in hits))
                        found |= good.view(bool)
    return out @ (1 << np.arange(n_top, dtype=np.int64))


def _warshall(adj: np.ndarray, nodes) -> np.ndarray:
    """(B, N, W) bit rows: bit v of row u iff a walk of length >= 1 via ``nodes`` leads u to v."""
    reach = adj.copy()
    for k in nodes:  # every row that reaches k gains row k
        reach |= (reach[..., k >> 3] >> (k & 7) & 1)[..., None] * reach[..., k, None, :]
    return reach


def decode_tables(indices: np.ndarray, cells: int, base: int) -> np.ndarray:
    """Decode integers to digit rows of length ``cells`` in ``base``, first digit most significant."""
    indices = np.asarray(indices, dtype=np.int64)
    out = np.empty((indices.shape[0], cells), dtype=np.int32)
    rem = indices.copy()
    for c in range(cells - 1, -1, -1):
        out[:, c] = rem % base
        rem //= base
    return out


def encode_tables(digits: np.ndarray, base: int) -> np.ndarray:
    """Inverse of :func:`decode_tables`."""
    out = np.zeros(digits.shape[0], dtype=np.int64)
    for c in range(digits.shape[1]):
        out = out * base + digits[:, c]
    return out


def renaming_perms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Non-identity permutations of memory states fixing state 0, with inverses."""
    phis = [(0, *tail) for tail in itertools.permutations(range(1, m))][1:]  # [0] is the identity
    invs = [sorted(range(m), key=phi.__getitem__) for phi in phis]
    return tuple(np.array(x, dtype=np.int32).reshape(len(phis), max(m, 1)) for x in (phis, invs))


def canonical_mask(upd_digits: np.ndarray, act_digits: np.ndarray, m: int,
                   n_actions: int) -> np.ndarray:
    """Rows that are lexicographically minimal under memory-state renaming.

    The initial memory state 0 is fixed; renamings permute states 1..m-1.
    Digit layout: ``upd_digits[b]`` lists update targets cell by cell
    ((mem 0, state 0), (mem 0, state 1), ..., (mem 1, state 0), ...), and the
    comparison key is the update digits followed by the act digits. Comparison
    runs on re-encoded integers, one per table, so the whole batch is a few
    vector operations per renaming.
    """
    batch = upd_digits.shape[0]
    keep = np.ones(batch, dtype=bool)
    n_states = upd_digits.shape[1] // m
    phis, invs = renaming_perms(m)
    enc_u = encode_tables(upd_digits, m)
    enc_a = encode_tables(act_digits, n_actions)
    u3 = upd_digits.reshape(batch, m, n_states)
    a3 = act_digits.reshape(batch, m, n_states)
    for phi, inv in zip(phis, invs):
        rel_u = phi[u3[:, inv, :]].reshape(batch, -1)
        rel_a = a3[:, inv, :].reshape(batch, -1)
        rel_enc_u = encode_tables(rel_u, m)
        rel_enc_a = encode_tables(rel_a, n_actions)
        keep &= (rel_enc_u > enc_u) | ((rel_enc_u == enc_u) & (rel_enc_a >= enc_a))
    return keep


def canonical_range(lo: int, hi: int, m: int, n_states: int,
                    n_actions: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical strategies among the indices ``[lo, hi)`` of the ``m``-memory block.

    Returns ``(keep, upd, row)``: ``keep[i]`` flags index ``lo + i`` as
    :func:`canonical_mask` does, ``upd`` holds the range's distinct update
    tables as digit rows, and ``row[i]`` is the one index ``lo + i`` plays.
    Consecutive indices share one update table per block of act tables, so
    the renaming test runs on the distinct update tables, and act digits are
    decoded only for the indices that tie on theirs.
    """
    cells = m * n_states
    n_act_tables = n_actions ** cells
    indices = np.arange(lo, hi, dtype=np.int64)
    distinct = np.arange(lo // n_act_tables, (hi - 1) // n_act_tables + 1, dtype=np.int64)
    upd = decode_tables(distinct, cells, m)
    row = indices // n_act_tables - lo // n_act_tables
    keep = np.ones(hi - lo, dtype=bool)
    phis, _ = renaming_perms(m)
    for phi in phis:
        # digit c of a table moves to cell phi[c // n_states] * n_states + c % n_states
        moved = phi[np.arange(cells) // n_states] * n_states + np.arange(cells) % n_states
        rel_u = (phi.astype(np.int64)[upd] * m ** (cells - 1 - moved)).sum(axis=1)
        keep &= (rel_u >= distinct)[row]
        ties = np.nonzero((rel_u == distinct)[row] & keep)[0]
        if len(ties):
            a_idx = indices[ties] % n_act_tables
            rel_a = (decode_tables(a_idx, cells, n_actions)
                     * n_actions ** (cells - 1 - moved)).sum(axis=1)
            keep[ties[rel_a < a_idx]] = False
    return keep, upd, row


def sweep_block(delta: np.ndarray, prio: np.ndarray,
                fixed_tables: list[tuple[np.ndarray, np.ndarray] | None],
                var_player: int, m_var: int, lo: int, hi: int,
                s0: int, n_actions: int, limit: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate-and-simulate a contiguous index range of one player's strategy block.

    All players except ``var_player`` play the fixed strategies; the varying
    player's strategy is decoded from each index in ``[lo, hi)``. Returns
    ``(keep, bits)``: bool ``keep[i]`` flags canonical representatives and
    ``bits[i]`` holds the varying player's topology mask. Entries not kept
    are renamings of earlier strategies and carry no simulation result, nor
    do kept entries past the first ``limit``. This is the hot path of the
    bounded searches and the brute-force deviation oracle.

    :func:`canonical_range` filters the range and hands back its distinct
    update tables; with the range's act tables they take the ``var_player``
    slot of one :func:`simulate_min_even` call, whose ``var_player`` column is ``bits``.
    """
    n_states = prio.shape[2]
    n_act_tables = n_actions ** (m_var * n_states)
    keep, ud, row_of = canonical_range(lo, hi, m_var, n_states, n_actions)
    bits = np.zeros(hi - lo, dtype=np.int64)
    kept = np.nonzero(keep)[0][:limit]
    if len(kept) == 0:
        return keep, bits

    # act table j of the range is the one of index lo + j, so kept row i plays
    # act table i mod n_act_tables
    ad = decode_tables((lo + np.arange(min(hi - lo, n_act_tables))) % n_act_tables,
                       m_var * n_states, n_actions)
    shape = (-1, m_var, n_states)
    tables = list(fixed_tables)
    tables[var_player] = (ud.reshape(shape), ad.reshape(shape))
    rows: list = [None] * len(tables)
    rows[var_player] = (row_of[kept], kept % n_act_tables)
    bits[kept] = simulate_min_even(delta, prio, tables, s0, n_actions, rows=rows)[:, var_player]
    return keep, bits
