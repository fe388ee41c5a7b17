"""Benchmark for padic_affine: one seeded, single-process, closed-loop
workload per run (one caller, no threads).

Run it from the root of a checkout; it imports the package from ./src:

    python3 bench/run.py --workload battery --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload wide-parts --seed 1 --seconds 35 --trace 1
    python3 bench/run.py --smoke

An untraced run (--trace 0) times every input of the workload once, repeats
inputs while --seconds last, and prints the end-to-end metrics, scaled to a
nominal machine speed (see speed.py). A traced run (--trace 1) times the
first input of each size class untraced, then wraps the package's layers
(see tracer.py), runs a coverage probe and the same inputs again, and
prints per-layer metrics plus the tracing overhead; its spans go to
bench/out/. Human-readable lines come first; the last line of stdout is
one JSON object with correct, attempted, failed and metrics. --smoke runs
every workload at minimum size and checks that every metric name is
emitted. See bench/README.md for the metrics and their caveats.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

import speed
import tracer as tracing

SETUP_PASSES = 3
# the metrics that --smoke requires on metric lines, over all three workloads
NAMED_METRICS = [
    "setup_s", "error_share", "peak_rss_mb",
    "battery_s.p2", "battery_s.p3", "battery_s.p5",
    "audit_s.16", "audit_s.64", "audit_s.128",
    "haar_configs_per_s", "intensity_configs_per_s", "mc_draws_per_s",
]
END_TO_END = ["setup_s", "peak_rss_mb", "small_s", "medium_s", "large_s"]


class Env:
    """What an item's run() gets from the runner: the clock that times its
    operation and a way to run result checks without spans."""

    def __init__(self, clock, tracer):
        self.clock = clock
        self.paused = tracer.paused


def _import_package(probe):
    """Import padic_affine from ./src; None when this is not a checkout.
    Returns the package and (seconds, wall start, wall end) of the import."""
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "padic_affine", "__init__.py")):
        return None
    sys.path.insert(0, src)
    w0, t0 = time.perf_counter(), probe.clock()
    import padic_affine
    import padic_affine.cli  # noqa: F401  (also loads suite and grammar)
    import padic_affine.randgen  # noqa: F401
    elapsed = probe.clock() - t0
    if not os.path.abspath(padic_affine.__file__).startswith(src + os.sep):
        return None
    return padic_affine, (elapsed, w0, time.perf_counter())


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


# workloads imports padic_affine, so the functions below import it only
# after _import_package has put ./src on the path.


def _run_once(item, env):
    """Run one item; a raising operation is a failed op, not a crash."""
    from workloads import Outcome

    w0 = time.perf_counter()
    t0 = env.clock()
    try:
        out = item.run(env)
    except Exception as exc:
        message = f"{item.name}: raised {type(exc).__name__}: {exc}"
        out = Outcome(env.clock() - t0, message, 1, [message])
    w1 = time.perf_counter()
    out.raw_elapsed = out.elapsed
    out.wall = (w0, w1)
    return out, w1 - w0


def measure(items, seconds, env):
    """Every item once, then further passes over the items while the time
    lasts; an item runs again only if its last wall time still fits."""
    results = [[] for _ in items]
    walls = [0.0] * len(items)
    start = time.perf_counter()
    for i, item in enumerate(items):
        out, walls[i] = _run_once(item, env)
        results[i].append(out)
    ran = True
    while ran:
        ran = False
        for i, item in enumerate(items):
            if walls[i] <= seconds - (time.perf_counter() - start):
                out, walls[i] = _run_once(item, env)
                results[i].append(out)
                ran = True
    return results


def _normalize(results, probe):
    for outs in results:
        for out in outs:
            s = probe.scale(*out.wall)
            out.elapsed = out.raw_elapsed * s
            out.per_op = {k: v * s for k, v in out.per_op.items()}


def _tally(items, results):
    """(attempted, failed, failure names, broken invariants, digest).

    Operations count once per input, from its first run, so the counts
    depend on the seed alone and not on how many repeats fitted in the
    time; the repeats must reproduce the first result exactly."""
    from workloads import _digest

    attempted = failed = 0
    failures, broken = [], []
    for item, outs in zip(items, results):
        attempted += outs[0].ops
        failed += len(outs[0].failures)
        failures += outs[0].failures
        for out in outs:
            broken += out.broken
        if len({out.fingerprint for out in outs}) > 1:
            broken.append(f"{item.name}: results differ between repeats")
    digest = _digest(outs[0].fingerprint for outs in results)
    return attempted, failed, failures, sorted(set(broken)), digest


def _setup(make_workload, seed, smoke, probe):
    """Build the workload SETUP_PASSES times. Returns the workload and the
    (seconds, wall start, wall end) of each pass: input generation,
    printing and parsing the literals, warm-up."""
    passes = []
    for _ in range(SETUP_PASSES):
        w0, t0 = time.perf_counter(), probe.clock()
        workload = make_workload(seed, smoke)
        passes.append((probe.clock() - t0, w0, time.perf_counter()))
    return workload, passes


def _untraced(workload, seconds, probe, import_time, passes):
    from workloads import SIZES, _size_metric, tail

    results = measure(workload.items, seconds, Env(probe.clock, tracing.NullTracer()))
    probe.stop()
    _normalize(results, probe)

    def scaled(timing):
        seconds, w0, w1 = timing
        return seconds * probe.scale(w0, w1)

    setup_s = scaled(import_time) + statistics.median(scaled(p) for p in passes)
    raw_setup_s = import_time[0] + statistics.median(p[0] for p in passes)
    attempted, failed, failures, broken, digest = _tally(workload.items, results)
    lines, more_broken = workload.summarize(workload.items, results)
    broken += more_broken
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    lines = [
        ("setup_s", setup_s, f"s  [raw {raw_setup_s!r} s]"),
        ("error_share", failed / attempted, "ratio"),
        ("peak_rss_mb", rss_mb, "MB"),
        ("speed.reference_s", probe.median_reference(),
         f"s  [median of {len(probe.durations)} samples; nominal {speed.NOMINAL_S} s]"),
    ] + lines
    for size in SIZES:
        value = _size_metric(workload.items, results, size)
        metrics[f"{size}_s"] = {"value": value, "unit": "s"}
        raw = _size_metric(workload.items, results, size, raw=True)
        samples = [
            out.elapsed / item.units
            for item, outs in zip(workload.items, results) if item.size == size
            for out in outs
        ]
        note = f"{len(samples)} samples"
        spread = tail(samples)
        if spread:
            note += f", p{spread[0]:g} = {spread[1]!r} s"
        lines.append((f"{size}_s", value, f"s  [{note}; raw {raw!r} s]"))
    return metrics, lines, attempted, failed, failures, broken, digest


def _traced(workload, seed, header):
    from workloads import SIZES, probe

    clock = time.perf_counter
    firsts = [next(it for it in workload.items if it.size == s) for s in SIZES]
    untraced = [_run_once(item, Env(clock, tracing.NullTracer()))[0] for item in firsts]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording():
            probe(seed)
            env = Env(clock, tracer)
            traced = [_run_once(item, env)[0] for item in firsts]
    finally:
        tracer.uninstall()
    overhead = (
        sum(o.elapsed for o in traced) / sum(o.elapsed for o in untraced) - 1.0
    )
    results = [[u, t] for u, t in zip(untraced, traced)]
    attempted, failed, failures, broken, digest = _tally(firsts, results)
    path = os.path.join("bench", "out", f"trace-{header['workload']}-seed{seed}.json")
    tracer.write(path, dict(header, trace_overhead=overhead))
    lines = [("trace.overhead", overhead, f"ratio  [spans in {path}]")]
    return tracer.metrics(overhead), lines, attempted, failed, failures, broken, digest


def run_workload(name, seed, seconds, trace, package, probe, import_time, smoke=False):
    from workloads import WORKLOADS

    workload, passes = _setup(WORKLOADS[name], seed, smoke, probe)
    header = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "padic_affine": package.__version__,
        "commit": _git_commit(),
    }
    print("header " + json.dumps(header, sort_keys=True))
    if trace:
        probe.stop()
        metrics, lines, attempted, failed, failures, broken, digest = _traced(
            workload, seed, header)
    else:
        metrics, lines, attempted, failed, failures, broken, digest = _untraced(
            workload, seconds, probe, import_time, passes)
    for metric, value, unit in lines:
        print(f"metric {metric} = {value!r} {unit}")
    print(f"digest {digest}")
    for failure in failures:
        print(f"failed op: {failure}")
    for b in broken:
        print(f"BROKEN: {b}")
    result = {
        "correct": not broken,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, [metric for metric, _, _ in lines]


def _declared_metrics():
    try:
        with open("BENCHMARK.json", encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError:
        return None
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def smoke(package, import_time) -> int:
    """Every workload at minimum size, untraced, then one traced probe;
    checks that every metric name is emitted."""
    from workloads import WORKLOADS, probe

    printed = set()
    problems = []
    for name in WORKLOADS:
        sampler = speed.SpeedProbe()
        sampler.start()
        result, names = run_workload(name, 0, 0, 0, package, sampler, import_time,
                                     smoke=True)
        print(json.dumps(result))
        printed.update(names)
        if list(result["metrics"]) != END_TO_END:
            problems.append(f"{name}: end-to-end metrics {sorted(result['metrics'])}")
        if not result["correct"]:
            problems.append(f"{name}: result checks failed")
    missing = [m for m in NAMED_METRICS if m not in printed]
    if missing:
        problems.append(f"metrics never printed: {missing}")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.recording():
            probe(0)
    finally:
        tracer.uninstall()
    if list(tracer.metrics(0.0)) != tracing.metric_names():
        problems.append("per-layer metric names differ from tracer.metric_names()")
    idle = [label for label, calls in zip(tracer.labels, tracer.calls) if not calls]
    if idle:
        problems.append(f"layers the probe never reached: {idle}")
    declared = _declared_metrics()
    if declared and declared != (END_TO_END, tracing.metric_names()):
        problems.append("BENCHMARK.json metric names differ from the benchmark's")
    for problem in problems:
        print(f"smoke: {problem}")
    print("smoke: " + ("ok" if not problems else "FAILED"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["battery", "wide-parts", "sampling"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    probe = speed.SpeedProbe()
    probe.start()
    try:
        imported = _import_package(probe)
        if imported is None:
            print("error: run from the root of a padic-affine checkout "
                  "(src/padic_affine not found)", file=sys.stderr)
            return 2
        package, import_time = imported
        if args.smoke:
            probe.stop()
            return smoke(package, import_time)
        result, _ = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace, package, probe, import_time)
    finally:
        probe.stop()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
