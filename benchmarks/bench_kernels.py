#!/usr/bin/env python3
"""Benchmark the batch simulation kernels: numba JIT vs pure-numpy fallback.

Two workloads, matching the package's real hot paths:

* ``sweep``: enumerate-and-simulate a contiguous strategy block of one player
  (the bounded-search / deviation-oracle path). Its numpy path filters the
  block for canonical strategies and simulates the kept rows with
  ``simulate_min_even``, the same walk as ``batch``.
* ``batch``: ``simulate_min_even`` on a pre-decoded batch of two-player router
  tables, one player varying and one fixed (the multi-player screening path).
  Its numpy path folds each row into one product next-position table and
  walks all rows and topologies together, ``SUB_BATCH`` rows at a time.

Run from the repository root::

    python3 benchmarks/bench_kernels.py [--batch 131072] [--repeat 3]

The same selection is available package-wide through the ``MTGAMES_KERNEL``
environment variable (auto | numba | numpy).
"""

import argparse
import random
import time

import numpy as np

from mtgames import _kernels
from mtgames.core import compile_tables
from mtgames.examples import fig3_game, router_game
from mtgames.strategy import StrategyBlock


def time_call(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_sweep(backend, batch, repeat):
    game = fig3_game()
    idx = compile_tables(game)
    block = StrategyBlock(game, 3)
    hi = min(block.total, batch)

    def run():
        _kernels.sweep_block(idx.delta, idx.prio, [None], 0, 3, 0, hi,
                             idx.initial, idx.n_actions, backend=backend)

    return time_call(run, repeat), hi


def bench_batch(backend, batch, repeat):
    game = router_game()
    idx = compile_tables(game)
    block = StrategyBlock(game, 2)
    rng = np.random.default_rng(0)
    indices = rng.integers(0, block.total, size=batch, dtype=np.int64)
    upd, act = block.decode(indices)
    fixed_upd, fixed_act = block.decode(np.array([17], dtype=np.int64))
    tables = [(upd, act), (fixed_upd, fixed_act)]

    def run():
        _kernels.simulate_min_even(idx.delta, idx.prio, tables,
                                   idx.initial, idx.n_actions, backend=backend)

    return time_call(run, repeat), batch


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=1 << 17)
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    backends = ["numpy"]
    if _kernels.HAS_NUMBA:
        backends.append("numba")
        _kernels.warmup(backend="numba")
    else:
        print("numba not importable; benchmarking the numpy fallback only")

    print(f"{'workload':<8} {'backend':<7} {'candidates':>10} {'time':>9} {'cand/s':>12}")
    results = {}
    for name, bench in (("sweep", bench_sweep), ("batch", bench_batch)):
        for backend in backends:
            elapsed, n = bench(backend, args.batch, args.repeat)
            results[(name, backend)] = elapsed
            print(f"{name:<8} {backend:<7} {n:>10} {elapsed:>8.3f}s {n / elapsed:>12.0f}")
    if _kernels.HAS_NUMBA:
        for name in ("sweep", "batch"):
            ratio = results[(name, "numpy")] / results[(name, "numba")]
            print(f"{name}: numba is {ratio:.1f}x faster than the numpy fallback")


if __name__ == "__main__":
    main()
