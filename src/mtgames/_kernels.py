"""Batched finite-memory strategy simulation kernels.

Everything expensive in this package funnels through one operation: simulate a
large batch of Moore strategy combinations over the indexed transition tables
and decide, per strategy and topology, whether each player's minimum
infinitely-visited priority is even. The brute-force oracles and the bounded
search both ride on it.

Two implementations are provided: a numba ``@njit`` kernel (default when numba
imports) and a pure-numpy fallback. Selection is controlled by the
``MTGAMES_KERNEL`` environment variable: ``auto`` (default), ``numba`` or
``numpy``. ``benchmarks/bench_kernels.py`` times both.

The numpy path has one simulation walk, in ``simulate_min_even``. The sweep
``sweep_block``, which varies one player's strategy over an index range, only
filters that range for canonical strategies and hands the kept rows to it.
The walk follows a functional graph: per candidate row the strategy tables
fold into one next-position table over product positions (players' memories,
then the game state); the walkers of all rows and topologies sit side by side
in one flat array, and each step is one ``np.take``. Rows go in sub-batches of
``SUB_BATCH`` so the arrays stay cache-sized. With ``window`` the number of
product positions, the walk is periodic after ``window`` steps and the next
``window`` steps cover the whole cycle, so no cycle detection is needed: the
minimum priority accumulated over them equals the lasso-based computation.
The lasso path in ``strategy.outcome`` stays an independent implementation,
cross-checked in the tests.
"""

from __future__ import annotations

import itertools
import math
import os

import numpy as np

try:
    from numba import njit, prange

    HAS_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAS_NUMBA = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        def wrap(f):
            return f
        return wrap

    prange = range  # type: ignore[assignment]

_INT_MAX = np.int32(2147483647)
SUB_BATCH = 1 << 13


def active_backend(override: str | None = None) -> str:
    """Resolve the kernel backend: 'numba' or 'numpy'."""
    choice = override or os.environ.get("MTGAMES_KERNEL", "auto")
    if choice not in ("auto", "numba", "numpy"):
        raise ValueError(f"MTGAMES_KERNEL must be auto, numba or numpy, got {choice!r}")
    if choice == "numpy":
        return "numpy"
    if choice == "numba" and not HAS_NUMBA:
        raise RuntimeError("MTGAMES_KERNEL=numba but numba is not importable")
    return "numba" if HAS_NUMBA else "numpy"


@njit(parallel=True, nogil=True, cache=True)
def _sim_numba(delta, prio, upd, act, init_mems, s0, n_actions, window):  # pragma: no cover - jitted
    n_top, n_pla, _ = prio.shape
    batch = upd.shape[1]
    wins = np.zeros((batch, n_top, n_pla), dtype=np.bool_)
    for b in prange(batch):
        mem = np.empty(n_pla, dtype=np.int32)
        minp = np.empty(n_pla, dtype=np.int32)
        for t in range(n_top):
            for p in range(n_pla):
                mem[p] = init_mems[p]
                minp[p] = 2147483647
            s = s0
            for step_i in range(2 * window):
                j = 0
                for p in range(n_pla):
                    j = j * n_actions + act[p, b, mem[p], s]
                for p in range(n_pla):
                    mem[p] = upd[p, b, mem[p], s]
                s = delta[t, s, j]
                if step_i >= window:
                    for p in range(n_pla):
                        v = prio[t, p, s]
                        if v < minp[p]:
                            minp[p] = v
            for p in range(n_pla):
                wins[b, t, p] = (minp[p] % 2) == 0
    return wins


def simulate_min_even(delta: np.ndarray, prio: np.ndarray,
                      tables: list[tuple[np.ndarray, np.ndarray]],
                      s0: int, n_actions: int, backend: str | None = None) -> np.ndarray:
    """Simulate a batch of strategy combinations; return win flags (batch, top, player).

    ``tables`` holds one ``(update, act)`` pair per player, each of shape
    ``(B_p, M_p, S)`` with ``B_p`` either 1 (fixed strategy, broadcast) or the
    common batch size. Entry ``wins[b, t, p]`` is True iff under combination
    ``b`` in topology ``t`` the minimum priority player ``p`` sees infinitely
    often is even.

    The numpy path walks ``SUB_BATCH`` rows at a time, one gather per step, as
    the module docstring describes. Over the second ``window`` steps each
    walker ORs in every player's priority one-hot, one bit field per player,
    so a field's lowest set bit is that player's cycle minimum; fields wider
    than 63 bits in total fall back to a running minimum per player.
    """
    n_pla = prio.shape[1]
    if len(tables) != n_pla:
        raise ValueError(f"expected {n_pla} strategy tables, got {len(tables)}")
    batch = max(u.shape[0] for u, _ in tables)
    if any(u.shape[0] not in (1, batch) or a.shape[0] != u.shape[0] for u, a in tables):
        raise ValueError("strategy table batch dimensions must be 1 or the common batch size")
    n_top, _, n_states = prio.shape
    mem_sizes = [u.shape[1] for u, _ in tables]
    window = n_states * math.prod(mem_sizes)

    if active_backend(backend) == "numba":
        upd = np.zeros((n_pla, batch, max(mem_sizes), n_states), dtype=np.int32)
        act = np.zeros_like(upd)
        for p, (u, a) in enumerate(tables):
            upd[p, :, : u.shape[1], :] = u
            act[p, :, : a.shape[1], :] = a
        return _sim_numba(np.ascontiguousarray(delta.astype(np.int32)),
                          np.ascontiguousarray(prio.astype(np.int32)),
                          upd, act, np.zeros(n_pla, dtype=np.int32), np.int32(s0),
                          np.int32(n_actions), np.int32(window))

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
    low = int(prio.min())
    width = int(prio.max()) - low + 1
    if n_pla * width <= 63:
        even = sum(1 << v for v in range(width) if (v + low) % 2 == 0)
        shift = (np.arange(n_pla) * width)[None, :, None] + (prio - low)
        per_state = [np.bitwise_or.reduce(np.left_shift(1, shift, dtype=np.int64), axis=1)]
        op, fill = np.bitwise_or, 0
    else:
        per_state, op, fill = list(prio.transpose(1, 0, 2)), np.minimum, _INT_MAX
    # accumulator tables over the flat indices of a full sub-batch; a shorter one uses a prefix
    full = (min(batch, SUB_BATCH), window, n_top)
    per_index = [np.broadcast_to(table[:, states_at].T, full).ravel() for table in per_state]

    wins = np.empty((batch, n_top, n_pla), dtype=bool)
    for lo in range(0, batch, SUB_BATCH):
        hi = min(lo + SUB_BATCH, batch)
        key = base_key
        for p, (u, a) in enumerate(tables):
            if u.shape[0] > 1:
                u, a = u[lo:hi], a[lo:hi]
            share = np.multiply(u, n_states * n_joint * math.prod(mem_sizes[p + 1:]), dtype=itype)
            share += a * n_actions ** (n_pla - 1 - p)
            key = key + np.take(share.reshape(len(share), -1), cells[p], axis=1)
        offsets = np.arange(hi - lo, dtype=itype)[:, None] * (window * n_top)
        nxt = (np.take(lookup, key, axis=0).reshape(hi - lo, -1) + offsets).ravel()
        pos = (offsets + (s0 * n_top + np.arange(n_top, dtype=itype))).ravel()
        accs = [np.full(pos.shape, fill, dtype=table.dtype) for table in per_index]
        for step_i in range(2 * window):
            pos = np.take(nxt, pos)
            if step_i >= window:
                for table, acc in zip(per_index, accs):
                    op(acc, np.take(table, pos), out=acc)
        out = wins[lo:hi].reshape(-1, n_pla)
        for p in range(n_pla):
            if op is np.minimum:
                out[:, p] = accs[p] % 2 == 0
            else:
                field = accs[0] >> (p * width)  # p's field is never empty, so no mask
                out[:, p] = (field & -field & even) != 0
    return wins


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
    phis = []
    invs = []
    for tail in itertools.permutations(range(1, m)):
        phi = np.array((0,) + tail, dtype=np.int32)
        if all(int(phi[i]) == i for i in range(m)):
            continue
        inv = np.empty(m, dtype=np.int32)
        inv[phi] = np.arange(m, dtype=np.int32)
        phis.append(phi)
        invs.append(inv)
    if not phis:
        return np.zeros((0, max(m, 1)), dtype=np.int32), np.zeros((0, max(m, 1)), dtype=np.int32)
    return np.stack(phis), np.stack(invs)


def canonical_mask(upd_digits: np.ndarray, act_digits: np.ndarray, m: int,
                   n_actions: int | None = None) -> np.ndarray:
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
    if m <= 2 or batch == 0:
        return keep
    if n_actions is None:
        n_actions = int(act_digits.max(initial=0)) + 1
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


@njit(parallel=True, nogil=True, cache=True)
def _sweep_numba(delta, prio, fixed_upd, fixed_act, var_player, m_var, lo, hi,
                 s0, n_actions, n_act_tables, phis, invs, window):  # pragma: no cover - jitted
    n_top, n_pla, n_states = prio.shape
    count = hi - lo
    keep = np.zeros(count, dtype=np.uint8)
    bits = np.zeros(count, dtype=np.int64)
    cells = m_var * n_states
    for i in prange(count):
        idx = lo + i
        u_idx = idx // n_act_tables
        a_idx = idx % n_act_tables
        u = np.empty((m_var, n_states), dtype=np.int32)
        a = np.empty((m_var, n_states), dtype=np.int32)
        rem_u = u_idx
        rem_a = a_idx
        for c in range(cells - 1, -1, -1):
            u[c // n_states, c % n_states] = rem_u % m_var
            rem_u //= m_var
            a[c // n_states, c % n_states] = rem_a % n_actions
            rem_a //= n_actions
        ok = True
        for pi in range(phis.shape[0]):
            cmp = 0
            for c in range(cells):
                mm = c // n_states
                s = c % n_states
                rel = phis[pi, u[invs[pi, mm], s]]
                if rel != u[mm, s]:
                    cmp = 1 if rel > u[mm, s] else -1
                    break
            if cmp == 0:
                for c in range(cells):
                    mm = c // n_states
                    s = c % n_states
                    rel = a[invs[pi, mm], s]
                    if rel != a[mm, s]:
                        cmp = 1 if rel > a[mm, s] else -1
                        break
            if cmp == -1:
                ok = False
                break
        if not ok:
            continue
        keep[i] = 1
        mask = 0
        mem = np.empty(n_pla, dtype=np.int32)
        for t in range(n_top):
            for p in range(n_pla):
                mem[p] = 0
            s = s0
            minp = 2147483647
            for step_i in range(2 * window):
                j = 0
                for p in range(n_pla):
                    if p == var_player:
                        j = j * n_actions + a[mem[p], s]
                    else:
                        j = j * n_actions + fixed_act[p, mem[p], s]
                for p in range(n_pla):
                    if p == var_player:
                        mem[p] = u[mem[p], s]
                    else:
                        mem[p] = fixed_upd[p, mem[p], s]
                s = delta[t, s, j]
                if step_i >= window:
                    v = prio[t, var_player, s]
                    if v < minp:
                        minp = v
            if minp % 2 == 0:
                mask |= 1 << t
        bits[i] = mask
    return keep, bits


def sweep_block(delta: np.ndarray, prio: np.ndarray,
                fixed_tables: list[tuple[np.ndarray, np.ndarray] | None],
                var_player: int, m_var: int, lo: int, hi: int,
                s0: int, n_actions: int, backend: str | None = None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Enumerate-and-simulate a contiguous index range of one player's strategy block.

    All players except ``var_player`` play the fixed strategies; the varying
    player's strategy is decoded from each index in ``[lo, hi)``. Returns
    ``(keep, bits)``: ``keep[i]`` flags canonical representatives and
    ``bits[i]`` holds the varying player's winning-topology bitmask. Entries
    with ``keep[i] == 0`` are renamings of earlier strategies and carry no
    simulation result. This is the hot path of the bounded searches and the
    brute-force deviation oracle. The numba variant fuses decoding, the
    canonicity test and the simulation into one pass; the numpy path filters
    the range and hands the kept rows to :func:`simulate_min_even`.
    """
    n_states = delta.shape[1]
    n_act_tables = n_actions ** (m_var * n_states)
    if active_backend(backend) == "numba":
        n_pla = prio.shape[1]
        window = n_states * m_var
        for p, tabs in enumerate(fixed_tables):
            if p != var_player:
                window *= tabs[0].shape[1]
        m_fixed = max((tabs[0].shape[1] for p, tabs in enumerate(fixed_tables)
                       if p != var_player), default=1)
        fixed_upd = np.zeros((n_pla, m_fixed, n_states), dtype=np.int32)
        fixed_act = np.zeros((n_pla, m_fixed, n_states), dtype=np.int32)
        for p, tabs in enumerate(fixed_tables):
            if p == var_player:
                continue
            fixed_upd[p, : tabs[0].shape[1], :] = tabs[0][0]
            fixed_act[p, : tabs[1].shape[1], :] = tabs[1][0]
        phis, invs = renaming_perms(m_var)
        return _sweep_numba(np.ascontiguousarray(delta.astype(np.int32)),
                            np.ascontiguousarray(prio.astype(np.int32)),
                            fixed_upd, fixed_act, np.int64(var_player),
                            np.int64(m_var), np.int64(lo), np.int64(hi),
                            np.int64(s0), np.int64(n_actions),
                            np.int64(n_act_tables), phis, invs, np.int64(window))
    return _sweep_numpy(delta, prio, fixed_tables, var_player, m_var, lo, hi,
                        s0, n_actions, n_act_tables)


def _sweep_numpy(delta, prio, fixed_tables, var_player, m_var, lo, hi,
                 s0, n_actions, n_act_tables):
    """Vectorized sweep: canonicity filter, then one :func:`simulate_min_even` call.

    Canonicity depends only on the update/act tables; consecutive indices share
    one update table per ``n_act_tables`` block, so the renaming test runs on
    the distinct update tables and act digits are only decoded for ties. The
    kept rows take the ``var_player`` slot of the batch simulation, every
    fixed co-strategy is broadcast, and the bitmask is read off that player's
    column. Update and act tables are each decoded once per distinct table.
    """
    n_top, _, n_states = prio.shape
    count = hi - lo
    cells = m_var * n_states
    indices = np.arange(lo, hi, dtype=np.int64)
    u_idx = indices // n_act_tables
    a_idx = indices % n_act_tables

    keep = np.ones(count, dtype=bool)
    u_lo = lo // n_act_tables
    u_hi = (hi - 1) // n_act_tables
    distinct = np.arange(u_lo, u_hi + 1, dtype=np.int64)
    ud = decode_tables(distinct, cells, m_var)
    row_of = u_idx - u_lo
    if m_var > 2:
        phis, invs = renaming_perms(m_var)
        for phi, inv in zip(phis, invs):
            phi64 = phi.astype(np.int64)
            pow_u = np.array([m_var ** (cells - 1 - (int(phi[c // n_states]) * n_states
                                                     + c % n_states))
                              for c in range(cells)], dtype=np.int64)
            rel_u = (phi64[ud] * pow_u).sum(axis=1)
            keep &= (rel_u >= distinct)[row_of]
            ties = np.nonzero((rel_u == distinct)[row_of] & keep)[0]
            if len(ties):
                pow_a = np.array([n_actions ** (cells - 1 - (int(phi[c // n_states])
                                                             * n_states + c % n_states))
                                  for c in range(cells)], dtype=np.int64)
                ad_t = decode_tables(a_idx[ties], cells, n_actions)
                rel_a = (ad_t * pow_a).sum(axis=1)
                keep[ties[rel_a < a_idx[ties]]] = False

    bits = np.zeros(count, dtype=np.int64)
    kept = np.nonzero(keep)[0]
    if len(kept) == 0:
        return keep.astype(np.uint8), bits

    first = lo % n_act_tables
    ad = decode_tables((first + np.arange(min(count, n_act_tables))) % n_act_tables,
                       cells, n_actions)
    shape = (len(kept), m_var, n_states)
    var_tables = (np.take(ud, row_of[kept], axis=0).reshape(shape),
                  np.take(ad, (a_idx[kept] - first) % n_act_tables, axis=0).reshape(shape))
    tables = [var_tables if p == var_player else tabs for p, tabs in enumerate(fixed_tables)]
    wins = simulate_min_even(delta, prio, tables, s0, n_actions, backend="numpy")
    bits[kept] = (wins[:, :, var_player] << np.arange(n_top, dtype=np.int64)).sum(axis=1)
    return keep.astype(np.uint8), bits


def warmup(backend: str | None = None) -> None:
    """Trigger JIT compilation on a tiny instance so later timings are steady."""
    delta = np.zeros((1, 1, 1), dtype=np.int32)
    prio = np.zeros((1, 1, 1), dtype=np.int32)
    tables = [(np.zeros((2, 1, 1), dtype=np.int32), np.zeros((2, 1, 1), dtype=np.int32))]
    simulate_min_even(delta, prio, tables, 0, 1, backend=backend)
    sweep_block(delta, prio, [None], 0, 1, 0, 1, 0, 1, backend=backend)
