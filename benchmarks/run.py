#!/usr/bin/env python3
"""supent benchmark: one workload per run, end to end or traced.

    python3 benchmarks/run.py --workload certify-dense --seed 1 --seconds 30 --trace 0

Run it from the repository root; supent is imported from ``src/``.  The
workloads are ``certify-dense``, ``audit-small`` and ``sweep-large-d`` (see
``workloads.py`` and ``NOTES.md``).  The load is a closed loop: one caller in
one thread waits for each result.  Ops run in whole cycles until ``--seconds``
have passed; every op's output is checked (``checks.py``).  After every op a
fixed reference kernel is timed, and end-to-end times are divided by the
host's slowdown around them, so that they follow the program rather than the
shared host's drifting speed (``NOTES.md``, "Noise").

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` they are the
per-layer ones, from spans recorded around every supent layer
(``tracing.py``).  The lines before it give the environment, the
per-class breakdown and how each metric was taken.  Details, and the spans of
a traced run, are written under ``.bench_out/``.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# One BLAS thread, fixed before numpy loads.  The benchmark runs one process
# at a time (set-up samples run after the timed phase), so threads never
# exceed the cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

# Set-up is sampled this many times per run (this process plus fresh child
# processes), and setup_s is the median.
SETUP_SAMPLES = 3
# Kernel runs timed right after each set-up, to scale it like the ops.
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 90


@dataclass
class Sample:
    label: str
    units: int
    latency: float
    failures: list
    gap: Optional[float]


def run_one(wl, op, run=None) -> Sample:
    """Time one op, then check its output outside the timed interval."""
    run = run or wl.run
    t0 = time.perf_counter()
    try:
        result = run(op)
    except Exception as exc:  # an op that raises is a failed op
        return Sample(op.label, op.units, time.perf_counter() - t0, [f"raised {exc!r}"], None)
    latency = time.perf_counter() - t0
    try:
        failures, gap = wl.evaluate(op, result)
    except Exception as exc:  # so is one whose output cannot be read
        failures, gap = [f"check raised {exc!r}"], None
    return Sample(op.label, op.units, latency, failures, gap)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 samples beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def environment() -> dict:
    import numpy as np

    libc = ctypes.CDLL(None)
    # glibc sysconf names _SC_LEVEL1_DCACHE_SIZE, _SC_LEVEL2_CACHE_SIZE and
    # _SC_LEVEL3_CACHE_SIZE; the values come from cpuid.
    caches = {level: libc.sysconf(code) for level, code in (("L1d", 188), ("L2", 191), ("L3", 194))}
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "machine": platform.machine(),
    }


def set_up(workloads, name: str, seed: int):
    """Input generation and warm-up; returns (workload, warm-up samples)."""
    wl = workloads.WORKLOADS[name](seed)
    warm = [run_one(wl, op) for op in wl.warmup_ops()]
    return wl, warm


def child_setup(name: str, seed: int) -> tuple[float, float]:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed), "--setup-only"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    reply = json.loads(proc.stdout.strip().splitlines()[-1])
    return reply["setup_s"], reply["probe_s"]


def failure_count(samples) -> int:
    bad = [s for s in samples if s.failures]
    for s in bad[:5]:
        print(f"FAILED {s.label}: {'; '.join(s.failures)}", file=sys.stderr)
    return len(bad)


def class_breakdown(samples) -> dict:
    by_label: dict = {}
    for s in samples:
        by_label.setdefault(s.label, []).append(s.latency * 1e3)
    return {k: {"n": len(v), "p50_ms": statistics.median(v)} for k, v in sorted(by_label.items())}


def time_reference(wl) -> float:
    """Time one run of the workload's reference kernel.

    An untimed run goes first: right after an op the kernel's first run is
    slowed by the state the op left behind (up to three times after an
    audit call), which would tie the probe to the program under test.
    """
    wl.reference()
    t0 = time.perf_counter()
    wl.reference()
    return time.perf_counter() - t0


# An op's time is divided by the host's slowdown around it: the mean of the
# PROBE_WINDOW reference-kernel times nearest to it, half taken before the
# op and half after, over the kernel's time on the reference host.
PROBE_WINDOW = 4


def host_scaled(latencies: list[float], probes: list[float], reference_s: float) -> list[float]:
    """Op latencies divided by the host's slowdown around each op.

    ``probes`` holds PROBE_WINDOW // 2 kernel times taken before the first
    op and then one after every op, so op j comes between ``probes[j :
    j + half]`` and ``probes[j + half : j + PROBE_WINDOW]``; near the end
    the window is shorter.
    """
    half = PROBE_WINDOW // 2
    assert len(probes) == len(latencies) + half
    out = []
    for j, latency in enumerate(latencies):
        window = probes[j : j + PROBE_WINDOW]
        out.append(latency * reference_s * len(window) / sum(window))
    return out


def run_e2e(workloads, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    wl, warm = set_up(workloads, name, seed)
    setup_raw = time.perf_counter() - _T0
    setup_probe = statistics.fmean(time_reference(wl) for _ in range(SETUP_PROBES))

    # As many whole cycles as come closest to --seconds, and at least the
    # TAIL_CYCLES that the tail is taken over: stop once another cycle would
    # overshoot by more than the current shortfall.  The reference kernel
    # runs after every op, outside its timed interval.
    cycles = []
    probes = [time_reference(wl) for _ in range(PROBE_WINDOW // 2)]
    start = time.perf_counter()
    while True:
        cycle = []
        for op in wl.cycle(len(cycles)):
            cycle.append(run_one(wl, op))
            probes.append(time_reference(wl))
        cycles.append(cycle)
        elapsed = time.perf_counter() - start
        if len(cycles) >= wl.TAIL_CYCLES and elapsed + 0.5 * elapsed / len(cycles) >= seconds:
            break
    samples = [s for cycle in cycles for s in cycle]

    # (set-up seconds, mean kernel time right after it) in this process and
    # in fresh child processes; each set-up is scaled like the ops.
    setups = [(setup_raw, setup_probe)]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(child_setup(name, seed))
    setup_samples = [t * wl.REFERENCE_S / p for t, p in setups]

    raw = [s.latency for s in samples]
    latencies = host_scaled(raw, probes, wl.REFERENCE_S)
    busy = sum(latencies)
    classes = class_breakdown(samples)
    # The tail comes from a fixed number of cycles, so its percentile and its
    # mix of op classes do not move when the program gets faster or slower.
    n_tail = sum(len(c) for c in cycles[: wl.TAIL_CYCLES])
    tail_ms, tail_pct = tail(latencies[:n_tail])
    tail_ms *= 1e3
    attempted = len(warm) + len(samples)
    failed = failure_count(warm + samples)
    gaps = [s.gap for s in samples[:n_tail] if s.gap is not None]
    units = sum(s.units for s in samples)
    metrics = {
        "throughput": (units / busy, "1/s"),
        "latency_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "latency_ms.tail": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "ok_frac": (1.0 - failed / attempted, "fraction"),
        "upper_gap_mean": (statistics.fmean(gaps) if gaps else float("nan"), "ebit"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    slowdown = statistics.fmean(probes) / wl.REFERENCE_S
    unscaled = {
        "throughput": units / sum(raw),
        "latency_ms.p50": statistics.median(raw) * 1e3,
        "latency_ms.tail": tail(raw[:n_tail])[0] * 1e3,
        "setup_s": statistics.median(t for t, _ in setups),
    }
    details = {
        "cycles": len(cycles),
        "ops": len(samples),
        "busy_s": sum(raw),
        "throughput_unit": f"{wl.unit}/s",
        "tail_percentile": tail_pct,
        "tail_samples": n_tail,
        "setups": setups,
        "failed_frac": failed / attempted,
        "slowdown": slowdown,
        "unscaled": unscaled,
        "classes": classes,
        "probes": probes,
        "latencies": raw,
    }
    print(f"{name} seed {seed}: {len(cycles)} cycles, {len(samples)} ops, {sum(raw):.2f} s busy")
    for label, c in details["classes"].items():
        print(f"  class {label:20s} n={c['n']:4d}  p50 {c['p50_ms']:10.2f} ms (unscaled)")
    print(f"  host slowdown {slowdown:.4f} (mean kernel time over REFERENCE_S)")
    print("  unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in unscaled.items()))
    print(f"  throughput {metrics['throughput'][0]:.4f} {wl.unit}/s")
    print(f"  latency_ms.tail is p{tail_pct:.2f} of the {n_tail} ops of the first {wl.TAIL_CYCLES} cycles")
    print(f"  setup_s median of {['%.3f' % x for x in setup_samples]}")
    print(f"  failed_frac {failed / attempted:.6g} ({failed} of {attempted} ops)")
    return _result(attempted, failed, metrics), details


def traced_pass(tracer, wl, ops, traced_run, pass_index: int) -> list:
    samples = []
    with tracer.installed():
        for i, op in enumerate(ops):
            tracer.op_id = f"{pass_index}.{i}"
            samples.append(run_one(wl, op, traced_run))
    return samples


def run_traced(workloads, tracing, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    tracer = tracing.Tracer()
    tracer.op_id = "setup"
    with tracer.installed():
        wl = workloads.WORKLOADS[name](seed)  # traced input generation
    setup_stats = tracing.layer_metrics(tracer.take())
    warm = [run_one(wl, op) for op in wl.warmup_ops()]

    # Pairs of one untraced and one traced pass over the same cycle: the
    # untraced pass gives the tracing overhead, the traced one the metrics.
    # The order alternates from pair to pair, so that an effect of going
    # first or second does not pass for overhead.  A pair starts only if it
    # should end within --seconds, so a traced run takes about as long as
    # an untraced one.
    ops = wl.cycle(0)
    traced_run = tracer.span("bench.op", wl.run)
    pairs = []
    samples = []
    certify_s = []
    start = time.perf_counter()
    while not pairs or (time.perf_counter() - start) * (len(pairs) + 1) / len(pairs) <= seconds:
        if len(pairs) % 2:
            traced = traced_pass(tracer, wl, ops, traced_run, len(pairs))
            plain = [run_one(wl, op) for op in ops]
        else:
            plain = [run_one(wl, op) for op in ops]
            traced = traced_pass(tracer, wl, ops, traced_run, len(pairs))
        tracer.keep_spans = False
        untraced_s = sum(s.latency for s in plain)
        traced_s = sum(s.latency for s in traced)
        snap = tracer.take()
        certify_s.append(snap["total"].get("bounds.certify", 0.0))
        pairs.append((untraced_s, traced_s, tracing.layer_metrics(snap)))
        samples += plain + traced

    per_pair = [m for _, _, m in pairs]
    values = {k: statistics.median(m[k] for m in per_pair) for k in per_pair[0]}
    for key in ("rng.gaussians", "rng.s"):
        values[key] += setup_stats[key]
    values["trace.overhead_s"] = statistics.median(t - u for u, t, _ in pairs)
    values["trace.overhead_frac"] = statistics.median((t - u) / u for u, t, _ in pairs)

    attempted = len(warm) + len(samples)
    failed = failure_count(warm + samples)
    metrics = {k: (v, _unit(k)) for k, v in values.items()}
    print(f"{name} seed {seed}: {len(pairs)} untraced/traced pairs over one cycle of {len(ops)} ops")
    print(f"  untraced {statistics.median(u for u, _, _ in pairs):.3f} s, traced {statistics.median(t for _, t, _ in pairs):.3f} s per cycle")
    print(f"  set-up (input generation): rng.gaussians {setup_stats['rng.gaussians']:.0f}, rng.s {setup_stats['rng.s']:.3f}")
    if statistics.median(certify_s):
        share = values["qmath.eigvalsh.s"] / statistics.median(certify_s)
        print(f"  qmath.eigvalsh.s is {100 * share:.1f} % of the time inside bounds.certify")
    os.makedirs(OUT, exist_ok=True)
    spans_path = os.path.join(OUT, f"spans-{name}-seed{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as handle:
        for record in tracer.spans:
            handle.write(json.dumps(record) + "\n")
    print(f"  {len(tracer.spans)} spans (set-up and first traced cycle) written to {os.path.relpath(spans_path, ROOT)}")
    details = {"pairs": [(u, t) for u, t, _ in pairs], "setup": setup_stats, "per_pair": per_pair}
    return _result(attempted, failed, metrics), details


def _unit(metric: str) -> str:
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith("_frac"):
        return "fraction"
    if metric.endswith(".bytes"):
        return "B"
    return "count"


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "supent", "__init__.py")):
        print(f"error: no supent sources under {SRC}; run from a supent checkout", file=sys.stderr)
        return 1
    sys.path.insert(0, SRC)
    import workloads  # noqa: E402 - needs supent on the path

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    if args.setup_only:
        wl, _ = set_up(workloads, args.workload, args.seed)
        setup_s = time.perf_counter() - _T0
        probe_s = statistics.fmean(time_reference(wl) for _ in range(SETUP_PROBES))
        print(json.dumps({"setup_s": setup_s, "probe_s": probe_s}))
        return 0

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        import tracing  # noqa: E402

        result, details = run_traced(workloads, tracing, args.workload, args.seed, args.seconds)
    else:
        result, details = run_e2e(workloads, args.workload, args.seed, args.seconds)
    for key, metric in result["metrics"].items():
        print(f"  {key:36s} {metric['value']:.6g} {metric['unit']}")
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump({"env": env, "result": result, "details": details}, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
