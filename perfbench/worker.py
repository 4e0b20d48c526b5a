"""One workload process: set up, report readiness, run, print one result line.

Started by ``run.py`` with the checkout root as working directory. Protocol on
stdout: the line ``ready`` once set-up is done, then (unless ``--setup-only``)
one JSON line with the run's counts and metrics. Everything else the process
prints goes to stderr.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def timed(op, probe):
    """Run one operation; return (result, t0, t1, seconds net of the probe's own time)."""
    busy0 = probe.busy
    t0 = perf_counter()
    result = op.run()
    t1 = perf_counter()
    return result, t0, t1, t1 - t0 - (probe.busy - busy0)


def measure(wl, seconds: float) -> dict:
    """Closed loop, one client: run whole rounds until the operations have
    taken ``seconds`` at nominal machine speed, so a run holds the same work
    whatever the machine's speed while it runs."""
    import speed

    done = []  # (t0, t1, raw seconds, label, work) of each correct operation
    attempted = failed = 0
    nominal = 0.0  # operation time so far, scaled to nominal speed
    give_up = perf_counter() + 4 * seconds  # bounds the wall time on a very slow machine
    with speed.Probe() as probe:
        for rnd in wl.rounds():
            for op in rnd:
                attempted += 1
                first = len(probe.samples)
                t0 = perf_counter()
                try:
                    result, t0, t1, raw = timed(op, probe)
                    ok, n, _ = op.check(result)
                except Exception as exc:  # a failing operation is counted, the run goes on
                    print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                    ok, raw = False, perf_counter() - t0
                if ok:
                    done.append((t0, t1, raw, op.label, n))
                else:
                    failed += 1
                nominal += raw * probe.since(first)
            if nominal >= seconds or perf_counter() >= give_up:
                break
    raw = [d[2] for d in done]
    lat = [r * probe.scale(t0, t1) for t0, t1, r, _, _ in done]
    work = sum(d[4] for d in done)
    stats = {}
    for key, values in (("metrics", lat), ("raw", raw)):
        tail = max(values) if wl.tail is None else \
            statistics.quantiles(values, n=100)[wl.tail - 1]
        stats[key] = {"work_per_s": work / sum(values),
                      "latency_p50_ms": statistics.median(values) * 1e3,
                      "latency_tail_ms": tail * 1e3}
    tail = stats["metrics"]["latency_tail_ms"] / 1e3
    beyond = Counter(d[3] for d, x in zip(done, lat) if x > tail)
    stats["metrics"]["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "attempted": attempted, "failed": failed, "metrics": stats["metrics"],
        "info": {"unit": wl.unit, "work": work, "samples": len(lat),
                 "tail": f"p{wl.tail}" if wl.tail else "max",
                 "beyond_tail": dict(beyond),
                 "raw (unscaled) times": stats["raw"],
                 "speed samples": len(probe.samples),
                 "median speed scale": statistics.median(
                     speed.NOMINAL_S / d for _, d in probe.samples)},
    }


def run_fixed(wl, tracer=None) -> tuple[float, int, int]:
    """One fresh pass over the workload's first ``trace_rounds`` rounds.

    Returns the operations' raw time and the counts. No speed probe runs
    here, so span times hold nothing but the program's work."""
    busy = 0.0
    attempted = failed = 0
    for rnd in itertools.islice(wl.rounds(), wl.trace_rounds):
        for op in rnd:
            attempted += 1
            if tracer is not None:
                tracer.op_id = attempted
                tracer.active = True
            try:
                t0 = perf_counter()
                result = op.run()
                busy += perf_counter() - t0
                if tracer is not None:
                    tracer.active = False
                ok, _, extra = op.check(result)
            except Exception as exc:  # counted as failed, like in measure()
                print(f"{op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                ok, extra = False, {}
            finally:
                if tracer is not None:
                    tracer.active = False
            failed += not ok
            if tracer is not None:
                for key, n in extra.items():
                    tracer.add(key, n)
    return busy, attempted, failed


def traced(wl, name: str, seed: int, import_s: float) -> dict:
    import tracing

    untraced_s, att_u, fail_u = run_fixed(wl)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        traced_s, att_t, fail_t = run_fixed(wl, tracer)
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    metrics["cli.import_s"] = import_s if name == "cli-readme" else 0.0
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    spans = ROOT / ".perfbench-out" / f"spans-{name}-seed{seed}.npz"
    tracer.save(spans)
    return {"attempted": att_u + att_t, "failed": fail_u + fail_t, "metrics": metrics,
            "info": {"spans": len(tracer.names), "spans_file": str(spans.relative_to(ROOT)),
                     "untraced_s": untraced_s, "traced_s": traced_s}}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    proto = sys.stdout
    sys.stdout = sys.stderr

    t0 = perf_counter()
    if args.workload == "cli-readme":
        import mtgames.cli  # noqa: F401  (the CLI's cold import is part of its set-up)
    import_s = perf_counter() - t0
    import mtgames
    import numpy
    import workloads
    from mtgames import _kernels

    src = ROOT / "src"
    if src not in Path(mtgames.__file__).resolve().parents:
        print(f"error: mtgames imported from {mtgames.__file__}, not from {src}",
              file=sys.stderr)
        return 1
    wl = workloads.WORKLOADS[args.workload](args.seed)
    print("ready", file=proto, flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        result = traced(wl, args.workload, args.seed, import_s)
    else:
        result = measure(wl, args.seconds)
    result["info"]["backend"] = _kernels.active_backend()
    result["info"]["numba"] = _kernels.HAS_NUMBA
    result["info"]["numpy"] = numpy.__version__
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
