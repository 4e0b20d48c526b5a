#!/usr/bin/env python3
"""mtgames benchmark: one seeded workload, measured end to end or traced layer by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-mixed --seed 0 --seconds 10 --trace 0

Workloads: search-sweep, search-screen, verify-mixed, cli-readme (see
README.md next to this file). Only verify-mixed consumes the seed; the others
run fixed bundled instances. Load is a closed loop with one client: one
process, one operation at a time, ``jobs=1``, ``MTGAMES_JOBS`` and
``MTGAMES_KERNEL`` removed from the environment.

With ``--trace 0`` the workload runs whole rounds until its operations have
taken ``--seconds`` at nominal machine speed (see speed.py), and the
end-to-end metrics of BENCHMARK.json are printed; set-up time is the median
over several fresh processes. With ``--trace 1`` a fixed amount of work runs
once untraced and once traced, and the per-layer metrics are printed. The last
stdout line is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import monotonic, perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("search-sweep", "search-screen", "verify-mixed", "cli-readme")
SETUPS = 5            # fresh processes whose set-up is timed; the last one runs
DEADLINE_S = 170.0    # whole invocation, set-ups included


def fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


class Worker:
    """A workload process; readiness is timed from spawn to its ``ready`` line.

    A watchdog kills the process at the deadline, which ends any read from it.
    """

    def __init__(self, argv: list[str], env: dict, deadline: float):
        t0 = perf_counter()
        self.proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                     text=True)
        self.watchdog = threading.Timer(max(0.0, deadline - monotonic()), self.proc.kill)
        self.watchdog.start()
        line = self.proc.stdout.readline()
        self.setup_s = perf_counter() - t0
        if line.strip() != "ready":
            self.close()
            raise RuntimeError("workload process ended before it was ready")

    def result(self) -> dict:
        out = self.proc.stdout.read()
        self.close()
        if self.proc.returncode != 0 or not out.strip():
            raise RuntimeError(f"workload process exited with {self.proc.returncode}")
        return json.loads(out.strip().splitlines()[-1])

    def close(self) -> None:
        self.proc.stdout.close()
        self.proc.wait()
        self.watchdog.cancel()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mtgames" / "__init__.py").is_file():
        return fail(f"no mtgames sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = {k: v for k, v in os.environ.items() if not k.startswith("MTGAMES_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so traced counts repeat exactly
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUPS - 1 if not args.trace else 0):
            w = Worker(argv + ["--setup-only"], env, deadline)
            w.close()
            setups.append(w.setup_s)
        w = Worker(argv, env, deadline)
        setups.append(w.setup_s)
        res = w.result()
    except (RuntimeError, OSError, json.JSONDecodeError) as exc:
        return fail(str(exc))

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups)
    names = {m["name"] for m in wanted}
    if set(metrics) != names:
        return fail(f"metrics {sorted(set(metrics) ^ names)} disagree with BENCHMARK.json")

    info = res["info"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"cores={os.cpu_count()} python={platform.python_version()} "
          f"numpy={info['numpy']} numba_imports={info['numba']} "
          f"kernel={info['backend']} jobs=1 MTGAMES_*=cleared")
    for key, value in info.items():
        if key not in ("numba", "backend", "numpy"):
            print(f"# {key}: {value}")
    if not args.trace:
        print(f"# setup_s samples: {[round(x, 4) for x in setups]}")
    print(f"# fail_ratio: {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']})")
    for m in wanted:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
