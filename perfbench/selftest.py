"""Self-test of the benchmark, in its shrunk mode.

Run from the root of a checkout::

    python3 perfbench/selftest.py

It checks that

* every workload, untraced and traced, prints as its last line the
  result object with exactly the metrics ``BENCHMARK.json`` names, each
  with its unit, and prints the end-to-end figures by their names;
* an injected NaN in a trace, and an alarm at the wrong instant, are
  each counted as a failed operation;
* the exact counts of a traced run repeat in a second run of the same
  seed;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  own files, the benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SEED = 7

#: Names the untraced human-readable report must print per workload.
HUMAN_NAMES = {
    "paper_panels": ("runs_per_s", "run_ms_p50", "run_ms_p90", "setup_s",
                     "failed_frac"),
    "seed_sweep": ("runs_per_s", "run_ms_p50", "run_ms_p90", "setup_s",
                   "failed_frac"),
    "signal_chain": ("runs_per_s", "run_ms_p50", "run_ms_p90", "setup_s",
                     "failed_frac"),
    "service_mixed": ("requests_per_s", "request_ms_p50", "request_ms_p90",
                      "setup_s", "failed_frac"),
}


def bench(*args, cwd=ROOT, script=RUN):
    completed = subprocess.run(
        [sys.executable, script, "--seed", str(SEED), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return completed


def result_of(completed):
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise AssertionError(
            f"exit {completed.returncode}: {completed.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def expect(condition: bool, message: str, problems: list) -> None:
    if not condition:
        problems.append(message)


def check_shapes(spec: dict, problems: list) -> None:
    for workload in spec["workloads"]:
        name = workload["name"]
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{name} trace {trace}"
            completed = bench("--workload", name, "--seconds", "1",
                              "--trace", str(trace), "--shrink")
            result = result_of(completed)
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{label}: result keys {sorted(result)}", problems)
            expect(result["attempted"] >= 1, f"{label}: nothing attempted",
                   problems)
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            metrics = result["metrics"]
            expect(set(metrics) == set(wanted),
                   f"{label}: metrics differ from {section}: "
                   f"{sorted(set(metrics) ^ set(wanted))}", problems)
            for metric, unit in wanted.items():
                got = metrics.get(metric, {})
                expect(got.get("unit") == unit and isinstance(
                    got.get("value"), (int, float)),
                    f"{label}: {metric} printed as {got}", problems)
            if trace == 0:
                for metric in spec["end_to_end"]:
                    expect(metrics[metric["name"]]["value"] > 0,
                           f"{label}: {metric['name']} is 0", problems)
                for human in HUMAN_NAMES[name]:
                    expect(f"  {human}" in completed.stdout,
                           f"{label}: no {human} line", problems)


def check_injected_faults(problems: list) -> None:
    for fault, evidence in (("nan", "non-finite trace"),
                            ("alarm", "first alarm at")):
        completed = bench("--workload", "paper_panels", "--seconds", "1",
                          "--trace", "0", "--shrink", "--inject", fault)
        result = result_of(completed)
        expect(result["failed"] >= 1 and not result["correct"],
               f"injected {fault}: not counted as failed ({result['failed']})",
               problems)
        expect(evidence in completed.stdout,
               f"injected {fault}: no {evidence!r} in the report", problems)


def check_exact_counts(problems: list) -> None:
    counts = []
    for _ in range(2):
        result_of(bench("--workload", "paper_panels", "--seconds", "1",
                        "--trace", "1", "--shrink"))
        path = os.path.join(HERE, "results",
                            f"paper_panels-seed{SEED}-trace1.json")
        with open(path, encoding="utf-8") as fh:
            counts.append(json.load(fh)["exact_counts"])
    expect(counts[0] == counts[1],
           "exact counts differ between two runs of one seed", problems)
    expect(counts[0]["radar.measure_calls"] > 0,
           "exact counts saw no radar calls", problems)


def check_bare_directory(problems: list) -> None:
    os.makedirs(os.path.join(HERE, ".work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(HERE, ".work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(
                            ".work", "results", "__pycache__"))
        completed = bench("--workload", "paper_panels", "--seconds", "1",
                          "--trace", "0", cwd=bare,
                          script=os.path.join(bare, "perfbench", "run.py"))
        expect(completed.returncode != 0,
               "bare directory: exit code 0", problems)
        expect(not completed.stdout.strip(),
               f"bare directory printed {completed.stdout[-200:]!r}", problems)
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    problems: list = []
    checks = (
        ("shapes", lambda: check_shapes(spec, problems)),
        ("injected faults", lambda: check_injected_faults(problems)),
        ("exact counts", lambda: check_exact_counts(problems)),
        ("bare directory", lambda: check_bare_directory(problems)),
    )
    for name, check in checks:
        before = len(problems)
        check()
        status = "ok" if len(problems) == before else "FAILED"
        print(f"{name}: {status}", flush=True)
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
