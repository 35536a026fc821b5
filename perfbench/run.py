"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper_panels --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Workloads: ``paper_panels``, ``seed_sweep``, ``signal_chain`` and
``service_mixed`` (see ``workloads.py`` for what each one drives and
why).  The seed generates every input; the program under ``src/`` only
sees the generated scenarios and requests.

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` alternates untraced and traced passes over the same
cycle of operations and reports the per-layer metrics from the traced
ones, plus the tracing overhead.  Either way the outputs are checked:
a failed check is counted in ``failed`` and turns ``correct`` false.  A
single workload's run exits 0 once it has printed its result;
``--workload all`` exits 1 when any check failed.  Without a result
(no program to load, or the benchmark itself broke) the exit code is
non-zero.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record (provenance, exact counts, the span tree) is written under
``perfbench/results/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

# One BLAS thread, set before numpy loads (the fresh set-up processes
# inherit it).  The radar's small matrix products run no faster on a
# second OpenBLAS thread on a 2-CPU host, only spin it at twice the CPU
# time, and that spinning thread makes every timing depend on the load
# the host's other tenants put on the second core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import reference  # noqa: E402
import spans  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOAD_NAMES = ("paper_panels", "seed_sweep", "signal_chain", "service_mixed")

#: Set-ups measured per ``--trace 0`` run (this process plus fresh
#: processes); ``setup_s`` is the median of their wall times.  Set-up
#: is mostly imports, whose speed the reference kernel does not track,
#: so it is not normalised.
SETUP_SAMPLES = 5
#: Latency percentile reported only with at least this many samples
#: (ten beyond the 90th percentile).
P90_MIN_SAMPLES = 100


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", action="store_true",
                        help="small cycles and one set-up (self-test)")
    parser.add_argument("--inject", choices=("nan", "alarm"),
                        help="corrupt one checked output (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def workload_why(name: str) -> str:
    """The workload's one-line reason, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        for workload in json.load(fh)["workloads"]:
            if workload["name"] == name:
                return workload["why"]
    raise KeyError(name)


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def load_program() -> None:
    """Put this checkout's ``src/`` first on the import path."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        raise FileNotFoundError(f"no program sources at {src}/repro")
    if not os.path.isfile(os.path.join(ROOT, "BENCH_defense.json")):
        raise FileNotFoundError("no BENCH_defense.json (the safety claims)")
    sys.path.insert(0, src)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args, why: str) -> dict:
    import numpy

    cpus = os.cpu_count() or 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": why,
        "git_sha": git_sha(),
        "nproc": cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_processes": 1,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "multi_worker_scaling": (
            f"not measured: every workload runs one load process with "
            f"workers=1 on this {cpus}-CPU host, too few cores for a "
            f"scaling figure"
        ),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_probe_seconds(args) -> float:
    """Wall seconds of one set-up in a fresh process, imports included."""
    completed = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"]


# ----------------------------------------------------------------------
# the two kinds of run
# ----------------------------------------------------------------------


def measure(workload, seconds: float):
    """Whole cycles, untraced, until ``seconds`` have passed."""
    sampler = reference.Sampler(workload.REFERENCE)
    workload.after_op = sampler.follow
    cycles = []
    deadline = time.perf_counter() + seconds
    while not cycles or time.perf_counter() < deadline:
        cycle = workload.run_cycle(len(cycles))
        cycle.scale = sampler.scale(cycle.wall)
        cycles.append(cycle)
    return cycles


def traced(workload, seconds: float):
    """Untraced and traced passes over cycle 0, from fresh state each,
    until ``seconds`` have passed (at least one untraced and two traced).

    Returns ``(untraced cycles, traced passes)``.
    """
    tracer = spans.Tracer()
    sampler = reference.Sampler(workload.REFERENCE)
    workload.after_op = sampler.follow
    untraced, passes = [], []
    order = ["plain", "traced", "traced"]
    deadline = time.perf_counter() + seconds
    while order:
        workload.reset()
        if order.pop(0) == "plain":
            cycle = workload.run_cycle(0)
            cycle.scale = sampler.scale(cycle.wall)
            untraced.append(cycle)
        else:
            passes.append(traced_pass(workload, tracer, sampler, not passes))
        if not order and time.perf_counter() < deadline:
            order = ["plain", "traced"]
    return untraced, passes


def traced_pass(workload, tracer, sampler, keep_full: bool):
    """Cycle 0 with the layer wrappers installed."""
    store = workload.store
    bytes_before = store.stats().payload_bytes if store is not None else 0
    tracer.reset()
    tracer.keep_full = keep_full
    spans.install(tracer)
    workload.op_span = lambda: tracer.span(spans.OP_SPAN)
    try:
        cycle = workload.run_cycle(0)
    finally:
        workload.op_span = contextlib.nullcontext
        tracer.uninstall()
    cycle.scale = sampler.scale(cycle.wall)
    if store is not None:
        tracer.count("store.payload_bytes_written",
                     store.stats().payload_bytes - bytes_before)
    for name, value in workload.pass_counts().items():
        tracer.count(name, value)
    return spans.PassRecord.of(tracer, cycle)


# ----------------------------------------------------------------------
# reporting
# ----------------------------------------------------------------------


def normalised_time(cycles) -> float:
    return sum(c.wall * c.scale for c in cycles)


def end_to_end(cycles, setup_samples):
    """The end-to-end metrics, in normalised time (``reference.py``).

    Each latency is normalised by the reference timed right after its
    operation, or by its cycle's when operations overlap.  Also returns
    the wall-clock figures for display.
    """
    latencies, normalised = [], []
    for cycle in cycles:
        for op in cycle.ops:
            latencies.append(op.seconds)
            normalised.append(op.seconds * (op.scale or cycle.scale))
    units = sum(c.units for c in cycles)
    wall = sum(c.wall for c in cycles)

    def p90_ms(values):
        return statistics.quantiles(values, n=10)[-1] * 1e3

    metrics = {
        "setup_s": (statistics.median(setup_samples), "s"),
        "throughput_per_s": (units / normalised_time(cycles), "1/s"),
        "call_ms_p50": (statistics.median(normalised) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    shown = {
        "throughput": (metrics["throughput_per_s"][0], units / wall),
        "p50_ms": (metrics["call_ms_p50"][0],
                   statistics.median(latencies) * 1e3),
        "p90_ms": (p90_ms(normalised), p90_ms(latencies))
        if len(latencies) >= P90_MIN_SAMPLES else None,
        "samples": len(latencies),
    }
    return metrics, shown


def print_human(args, metrics, extra_lines):
    print(f"== {args.workload}  seed {args.seed}  trace {args.trace}")
    for line in extra_lines:
        print(f"  {line}")
    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<{width}}  {value:.6g} {unit}")


def write_record(args, record, full_spans=()):
    out = os.path.join(HERE, "results")
    os.makedirs(out, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out, stem + ".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    if full_spans:
        with open(os.path.join(out, stem + ".spans.jsonl"), "w",
                  encoding="utf-8") as fh:
            for span_id, parent, name, start, end in full_spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


def run_one(args) -> int:
    try:
        load_program()
        import workloads
    except (FileNotFoundError, ImportError) as exc:
        return fail(f"cannot load the program: {exc}")

    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, ROOT, workdir, args.shrink
    )
    try:
        workload.setup()
        setup = time.perf_counter() - START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup}))
            return 0
        workload.inject = args.inject
        if args.trace:
            untraced, passes = traced(workload, args.seconds)
            cycles = untraced + [p.cycle for p in passes]
        else:
            cycles = measure(workload, args.seconds)
        checks = workload.final_checks()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    why = workload_why(args.workload)
    ops = [op for cycle in cycles for op in cycle.ops]
    failures = [failure for op in ops for failure in op.failures]
    lines = [
        f"why: {why}",
        f"operations: {len(ops)} in {len(cycles)} cycles, "
        f"{len(checks)} workload checks",
    ]
    record = {"provenance": provenance(args, why)}
    if workload.defended_runs:
        record["seeded_collisions"] = {
            label: {"collided": workload.collisions[label], "runs": runs}
            for label, runs in sorted(workload.defended_runs.items())
        }
        lines.append("seeded collisions (reported, not gated): " + ", ".join(
            f"{label} {c['collided']}/{c['runs']}"
            for label, c in record["seeded_collisions"].items()
        ))
    if args.trace:
        metrics, exact = report_traced(untraced, passes, lines, record)
        checks.append(("exact counts repeat", exact))
    else:
        setups = [setup]
        if not args.shrink:
            setups += [setup_probe_seconds(args)
                       for _ in range(SETUP_SAMPLES - 1)]
        metrics = report_untraced(args, cycles, setups, lines, record)

    failed_checks = [(name, found) for name, found in checks if found]
    attempted = len(ops) + len(checks)
    failed = sum(1 for op in ops if op.failures) + len(failed_checks)
    lines.append(
        f"failed_frac = {failed / attempted:.6g} ({failed}/{attempted})"
    )
    lines += [f"FAILED {name}: {found[:3]}" for name, found in failed_checks]
    lines += [f"FAILED op: {failure}" for failure in failures[:5]]
    print_human(args, metrics, lines)

    record.update(
        attempted=attempted,
        failed=failed,
        metrics={name: {"value": v, "unit": u}
                 for name, (v, u) in metrics.items()},
        failures=failures[:50],
        failed_checks=failed_checks,
    )
    write_record(args, record, passes[0].full_spans if args.trace else ())
    print(f"provenance {json.dumps(record['provenance'], sort_keys=True)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


def report_traced(untraced, passes, lines, record):
    """Per-layer metrics plus the failures of the exact-count check."""
    overhead = (
        normalised_time([p.cycle for p in passes]) / len(passes)
    ) / (normalised_time(untraced) / len(untraced)) - 1.0
    lines.append(
        f"traced passes: {len(passes)}, untraced passes: {len(untraced)}"
    )
    record["exact_counts"] = spans.exact_counts(passes[0])
    record["span_tree"] = spans.edge_table(passes)
    return spans.layer_metrics(passes, overhead), spans.exact_count_failures(passes)


def report_untraced(args, cycles, setups, lines, record):
    """End-to-end metrics; the per-workload names (runs_per_s, request_ms_p50,
    ...) go to the readable lines."""
    metrics, shown = end_to_end(cycles, setups)
    kind = "request" if args.workload == "service_mixed" else "run"
    samples = shown["samples"]
    lines.append("normalised (wall) figures:")
    lines.append("{}s_per_s = {:.6g} ({:.6g}) 1/s".format(
        kind, *shown["throughput"]))
    lines.append("{}_ms_p50 = {:.6g} ({:.6g}) ms, n={}".format(
        kind, *shown["p50_ms"], samples))
    lines.append(
        "{}_ms_p90 = {:.6g} ({:.6g}) ms, n={}".format(
            kind, *shown["p90_ms"], samples)
        if shown["p90_ms"] is not None
        else f"{kind}_ms_p90: not reported, {samples} samples < "
        f"{P90_MIN_SAMPLES}"
    )
    lines.append(f"setup_s = {metrics['setup_s'][0]:.6g} s (wall), median "
                 f"of {len(setups)}")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb'][0]:.6g} MB")
    record["setup_samples_s"] = setups
    record["wall"] = shown
    record["cycles"] = [
        {"units": c.units, "wall_s": c.wall, "scale": c.scale,
         "op_s": [op.seconds for op in c.ops],
         "op_scale": [op.scale for op in c.ops]}
        for c in cycles
    ]
    return metrics


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    results = {}
    for name in WORKLOAD_NAMES:
        command = [sys.executable, os.path.abspath(__file__), "--workload",
                   name, "--seed", str(args.seed), "--seconds",
                   str(args.seconds), "--trace", str(args.trace)]
        if args.shrink:
            command.append("--shrink")
        completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                   text=True, timeout=900)
        sys.stdout.write(completed.stdout)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        if completed.returncode != 0 or not lines:
            return fail(f"{name} exited {completed.returncode}",
                        completed.returncode or 2)
        results[name] = json.loads(lines[-1])
    correct = all(result["correct"] for result in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": results,
    }))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
