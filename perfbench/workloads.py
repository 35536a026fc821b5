"""The benchmark's workloads and the checks on their outputs.

Every workload is a closed loop: one caller (two connections for
``service_mixed``) sends its next operation only when the previous one
has answered.  A workload runs in *cycles*: ``run_cycle(i)`` executes
the operations generated from ``(seed, i)``, times each one, checks its
output, and returns a :class:`Cycle`.  ``reset()`` restores fresh
program state, so that the same cycle can be run again on equal terms
(the traced passes and the exact-count checks rely on that).
"""

from __future__ import annotations

import asyncio
import collections
import contextlib
import json
import os
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro
from repro import fig2_scenario, fig3_scenario
from repro.analysis.defense_comparison import defense_variants
from repro.analysis.metrics import detection_confusion
from repro.simulation.batch import RunSpec
from repro.simulation.io import result_to_dict
from repro.simulation.spec import scenario_to_dict
from repro.store import RunStore
from repro.store.fingerprint import run_fingerprint

#: The paper's first alarm: the k = 182 challenge after the attacks
#: start (Results, Figures 2 and 3).
FIRST_ALARM_S = 182.0

PANELS = {
    "fig2a": (fig2_scenario, "dos"),
    "fig2b": (fig2_scenario, "delay"),
    "fig3a": (fig3_scenario, "dos"),
    "fig3b": (fig3_scenario, "delay"),
}

@dataclass
class Op:
    """One timed operation: its wall time and what its checks found."""

    seconds: float
    failures: List[str] = field(default_factory=list)
    #: Wall-to-normalised factor from the reference timed right after
    #: this operation (``None`` where operations overlap).
    scale: Optional[float] = None


@dataclass
class Cycle:
    """The operations of one cycle plus the work they completed.

    ``units`` counts what the throughput metric counts (closed-loop
    runs, or HTTP requests); ``wall`` is the time the cycle's
    operations took, excluding the benchmark's own output checks.
    """

    ops: List[Op]
    units: int
    wall: float
    #: Wall-to-normalised time factor (see ``reference.py``).
    scale: float = 1.0


def load_safe_strategies(root: str) -> Tuple[str, ...]:
    """``safe_everywhere`` from the repo's defense-comparison record."""
    with open(os.path.join(root, "BENCH_defense.json"), encoding="utf-8") as fh:
        return tuple(json.load(fh)["safe_everywhere"])


def defense_label(scenario) -> str:
    """The label ``BENCH_defense.json`` uses for a scenario's defense."""
    defense = scenario.defense
    if defense.strategy == "rls":
        return defense.estimator_kind
    return defense.strategy


def with_strategy(scenario, strategy: str):
    return scenario.with_overrides(
        defense=replace(scenario.defense, strategy=strategy)
    )


# ----------------------------------------------------------------------
# output checks
# ----------------------------------------------------------------------


def trace_failures(result) -> List[str]:
    """Every trace of a run must be finite."""
    bad = []
    for name, series in result.traces.items():
        times, values = series.as_arrays()
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(values))):
            bad.append(f"non-finite trace {name!r}")
    return bad


def alarm_failures(result, attack) -> List[str]:
    """First alarm at k = 182 with no false positive or negative."""
    failures = []
    times = result.detection_times
    if not times or times[0] != FIRST_ALARM_S:
        failures.append(f"first alarm at {times[:1]} instead of {FIRST_ALARM_S}")
    confusion = detection_confusion(result.detection_events, attack)
    if not confusion.perfect:
        failures.append(
            f"{confusion.false_positives} FP / {confusion.false_negatives} FN"
        )
    return failures


def defended_run_failures(result, scenario) -> List[str]:
    """Checks on one attacked, defended run."""
    return trace_failures(result) + alarm_failures(result, scenario.attack)


def default_seed_claim_failures(safe: Tuple[str, ...]) -> List[str]:
    """The claim ``BENCH_defense.json`` makes: at each panel's default
    sensor seed, every ``safe_everywhere`` strategy is collision-free
    (and alarms on time).  The variants are the program's own
    ``defense_variants``, so this runs what that record ran."""
    failures = []
    for panel, (factory, attack) in PANELS.items():
        for label, scenario, defended in defense_variants(factory(attack)):
            if label not in safe:
                continue
            result = repro.run(scenario, defended=defended,
                               backend="scalar", cache="off")
            found = defended_run_failures(result, scenario)
            if result.collided:
                found.append(f"collided at {result.collision_time}")
            failures += [f"{panel} {label}: {f}" for f in found]
    return failures


def reply_failures(method: str, path: str, status, reply) -> List[str]:
    """Every service reply must be 200: a finished run, or a payload."""
    if status is None:
        return [reply]
    if status != 200:
        return [f"{method} {path} answered {status}: {reply}"]
    if method == "POST" and reply.get("status") != "done":
        return [f"{method} {path} status {reply.get('status')}"]
    if method == "GET" and "payload" not in reply:
        return [f"{method} {path} returned no payload"]
    return []


def fresh_store(path: str) -> RunStore:
    """An empty run store at ``path`` (any earlier one is deleted)."""
    for suffix in ("", "-wal", "-shm"):
        with contextlib.suppress(FileNotFoundError):
            os.remove(path + suffix)
    return RunStore(path)


def same_result(a, b) -> bool:
    """Bit-identical results (floats compared exactly)."""
    return result_to_dict(a) == result_to_dict(b)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------


class Workload:
    """Shared plumbing: seeding, the op span hook, checks bookkeeping."""

    name = ""
    #: The reference kernel that normalises its times (``reference.py``).
    REFERENCE = "step"

    def __init__(self, seed: int, root: str, workdir: str, shrink: bool):
        self.seed = seed
        self.workdir = workdir
        self.shrink = shrink
        self.safe = load_safe_strategies(root)
        #: Context-manager factory opened around every timed operation
        #: (the traced run installs its root span here).
        self.op_span: Callable = contextlib.nullcontext
        #: Called with each operation's wall time once it is timed; it
        #: returns the operation's normalisation factor (the reference
        #: sampler, when measuring).
        self.after_op: Callable[[float], Optional[float]] = lambda wall: None
        #: Fault injected into the first checked output (self-test).
        self.inject: Optional[str] = None
        #: Defended, attacked runs and their collisions per defense
        #: label, on the seeded inputs.  ``BENCH_defense.json`` claims
        #: collision-freedom only at each panel's default sensor seed
        #: (checked by ``PaperPanels.final_checks``); on other seeds
        #: every defense collides now and then, so these are counted and
        #: reported as a finding rather than failed.
        self.defended_runs: collections.Counter = collections.Counter()
        self.collisions: collections.Counter = collections.Counter()

    def note_outcome(self, label: str, collided: bool) -> None:
        self.defended_runs[label] += 1
        self.collisions[label] += int(bool(collided))

    def rng(self, *salt) -> random.Random:
        return random.Random(repr((self.name, self.seed) + salt))

    def sensor_seed(self, *salt) -> int:
        return self.rng(*salt).randrange(1, 2**31)

    def corrupt(self, result):
        """Apply the injected fault (once) to a run's result; a wrong
        alarm waits for a run that has challenge verdicts to shift."""
        if self.inject is None or (
            self.inject == "alarm" and not result.detection_events
        ):
            return result
        kind, self.inject = self.inject, None
        if kind == "nan":
            series = result.traces["safe_distance"]
            series.values[len(series.values) // 2] = float("nan")
        elif kind == "alarm":
            result.detection_events = [
                replace(event, time=event.time - 7.0)
                for event in result.detection_events
            ]
        return result

    def timed(self, call: Callable) -> Tuple[object, Op]:
        """Run one operation inside the op span; an exception is
        recorded as the op's failure, not raised."""
        failures = []
        with self.op_span():
            start = time.perf_counter()
            try:
                output = call()
            except Exception as exc:
                output = None
                failures.append(f"raised {type(exc).__name__}: {exc}")
            elapsed = time.perf_counter() - start
        return output, Op(elapsed, failures, self.after_op(elapsed))

    @property
    def store(self) -> Optional[RunStore]:
        return None

    def setup(self) -> None:
        """Build inputs and program state, then one warm-up operation."""

    def reset(self) -> None:
        """Fresh program state for a repeatable pass."""

    def final_checks(self) -> List[Tuple[str, List[str]]]:
        """Checks on the run as a whole: (name, failures found)."""
        return []

    def pass_counts(self) -> Dict[str, int]:
        """Counters a traced pass reports that no wrapper can see."""
        return {}

    def close(self) -> None:
        pass


class PaperPanels(Workload):
    """The four paper panels, six variants each, one run at a time."""

    name = "paper_panels"
    #: (defense strategy, attack enabled, defended): attack-free,
    #: undefended, then the four defenses.
    VARIANTS = (
        (None, False, False),
        (None, True, False),
        ("rls", True, True),
        ("safety_filter", True, True),
        ("secure_reconstruction", True, True),
        ("combined", True, True),
    )

    def specs(self, index: int):
        specs = []
        for panel in ("fig2a", "fig3b") if self.shrink else PANELS:
            factory, attack = PANELS[panel]
            base = factory(attack, sensor_seed=self.sensor_seed(index, panel))
            for strategy, attacked, defended in self.VARIANTS:
                scenario = base if strategy is None else with_strategy(
                    base, strategy
                )
                specs.append((scenario, attacked, defended))
        return specs

    def setup(self) -> None:
        # Warm-up: one unchecked run of the heaviest variant.
        self.run_one(*self.specs(-1)[-1])

    def run_one(self, scenario, attacked: bool, defended: bool):
        return repro.run(
            scenario,
            attack_enabled=attacked,
            defended=defended,
            backend="scalar",
            cache="off",
        )

    def check_run(self, result, scenario, attacked, defended) -> List[str]:
        result = self.corrupt(result)
        if attacked and defended:
            self.note_outcome(defense_label(scenario), result.collided)
            return defended_run_failures(result, scenario)
        return trace_failures(result)

    def run_cycle(self, index: int) -> Cycle:
        ops = []
        for scenario, attacked, defended in self.specs(index):
            result, op = self.timed(
                lambda: self.run_one(scenario, attacked, defended)
            )
            if result is not None:
                op.failures += self.check_run(
                    result, scenario, attacked, defended
                )
            ops.append(op)
        return Cycle(ops, len(ops), sum(op.seconds for op in ops))

    def final_checks(self) -> List[Tuple[str, List[str]]]:
        return [("safe_everywhere at the default seeds",
                 default_seed_claim_failures(self.safe))]


class SignalChain(PaperPanels):
    """fig2a DoS and fig2b delay at signal fidelity, two defenses.

    A cycle is two runs, one per panel; the defenses swap panels from
    one cycle to the next.
    """

    name = "signal_chain"
    REFERENCE = "signal"
    STRATEGIES = ("rls", "secure_reconstruction")

    def specs(self, index: int):
        specs = []
        for turn, panel in enumerate(("fig2a", "fig2b")):
            factory, attack = PANELS[panel]
            scenario = factory(
                attack,
                fidelity="signal",
                sensor_seed=self.sensor_seed(index, panel),
            )
            strategy = self.STRATEGIES[(index + turn) % 2]
            specs.append((with_strategy(scenario, strategy), True, True))
        return specs

    def setup(self) -> None:
        # Warm-up: a short, unchecked signal-fidelity run (the full ones
        # take about 2 s).
        scenario = fig2_scenario(
            "dos", fidelity="signal", horizon=20.0,
            sensor_seed=self.sensor_seed(-1),
        )
        self.run_one(scenario, True, True)


class SeedSweep(Workload):
    """Monte-Carlo cells under ``backend="auto"`` into a fresh store."""

    name = "seed_sweep"
    #: (panel, strategy, runs per cycle): two cells the vectorized
    #: engine takes, two scalar-only ones, weighted to similar cost.
    CELLS = (
        ("fig2a", "rls", 16),
        ("fig2b", "safety_filter", 16),
        ("fig3a", "secure_reconstruction", 2),
        ("fig3b", "combined", 2),
    )

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._store: Optional[RunStore] = None
        self._used: set = set()
        self.rows_expected = 0
        self.cells = []
        for panel, strategy, runs in self.CELLS:
            factory, attack = PANELS[panel]
            scenario = with_strategy(factory(attack), strategy)
            self.cells.append(
                (panel, scenario, max(2, runs // 4) if self.shrink else runs)
            )

    @property
    def store(self) -> Optional[RunStore]:
        return self._store

    def seeds(self, index: int, cell: int, runs: int) -> List[int]:
        rng = self.rng(index, cell)
        seeds: List[int] = []
        while len(seeds) < runs:
            candidate = rng.randrange(1, 2**31)
            if candidate not in seeds:
                seeds.append(candidate)
        return seeds

    def _fresh_store(self) -> None:
        if self._store is not None:
            self._store.close()
        self._store = fresh_store(os.path.join(self.workdir, "sweep.sqlite"))
        self._used = set()
        self.rows_expected = 0

    def setup(self) -> None:
        self._fresh_store()
        # Warm-up: a two-seed cell through the same path (its rows are
        # dropped with the store reset below).
        _, scenario, _ = self.cells[0]
        repro.run(scenario, mode="monte_carlo", seeds=self.seeds(-1, 0, 2),
                  backend="auto", workers=1, cache=self._store)
        self._fresh_store()

    def reset(self) -> None:
        self._fresh_store()

    def run_cycle(self, index: int) -> Cycle:
        ops = []
        runs = 0
        for cell, (panel, scenario, n) in enumerate(self.cells):
            seeds = self.seeds(index, cell, n)
            summary, op = self.timed(
                lambda: repro.run(
                    scenario,
                    mode="monte_carlo",
                    seeds=seeds,
                    backend="auto",
                    workers=1,
                    cache=self._store,
                )
            )
            failures = op.failures
            fresh = [seed for seed in seeds if seed not in self._used]
            self._used.update(seeds)
            self.rows_expected += len(fresh)
            for outcome in summary.outcomes if summary is not None else ():
                self.note_outcome(defense_label(scenario), outcome.collided)
                if outcome.detection_time != FIRST_ALARM_S:
                    failures.append(
                        f"{panel} seed {outcome.seed} first alarm at "
                        f"{outcome.detection_time}"
                    )
                if not np.isfinite(outcome.min_gap):
                    failures.append(f"{panel} seed {outcome.seed} non-finite")
            rows = len(self._store)
            if rows != self.rows_expected:
                failures.append(
                    f"store holds {rows} rows, expected {self.rows_expected}"
                )
            ops.append(op)
            runs += len(seeds)
        return Cycle(ops, runs, sum(op.seconds for op in ops))

    def final_checks(self) -> List[Tuple[str, List[str]]]:
        """One sampled seed per cell: the stored ``auto`` result is
        bit-identical to a fresh ``backend="scalar"`` run."""
        checks = []
        for cell, (panel, scenario, n) in enumerate(self.cells):
            seed = self.rng("sample", cell).choice(self.seeds(0, cell, n))
            run = scenario.with_overrides(sensor_seed=seed)
            stored = self._store.get(
                run_fingerprint(RunSpec(run, attack_enabled=True, defended=True))
            )
            failures = []
            if stored is None:
                failures.append(f"{panel} seed {seed} missing from the store")
            else:
                stored = self.corrupt(stored)
                failures += defended_run_failures(stored, run)
                scalar = repro.run(run, backend="scalar", cache="off")
                if not same_result(stored, scalar):
                    failures.append(
                        f"{panel} seed {seed}: auto result differs from scalar"
                    )
            checks.append((f"{panel} auto==scalar", failures))
        return checks

    def close(self) -> None:
        if self._store is not None:
            self._store.close()
            self._store = None


class ServiceMixed(Workload):
    """In-process service on loopback, two closed-loop connections."""

    name = "service_mixed"
    HORIZON_S = 40.0
    HITS, MISSES, TRACES = 41, 5, 4
    CONNECTIONS = 2

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.loop = asyncio.new_event_loop()
        self.app = None
        self.port = 0
        self._store: Optional[RunStore] = None
        self.pool: List[dict] = []
        self.fingerprints: List[str] = []
        self.unique_specs = 0
        if self.shrink:
            self.HITS, self.MISSES, self.TRACES = 8, 1, 1

    @property
    def store(self) -> Optional[RunStore]:
        return self._store

    def spec(self, panel: str, sensor_seed: int) -> dict:
        factory, attack = PANELS[panel]
        body = scenario_to_dict(
            factory(attack, horizon=self.HORIZON_S, sensor_seed=sensor_seed)
        )
        body["name"] = f"{panel}-{sensor_seed}"
        return body

    async def request(self, method: str, path: str, body=None):
        """One HTTP/1.1 exchange on a new connection: (status, json)."""
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            data = b"" if body is None else json.dumps(body).encode("utf-8")
            writer.write(
                (
                    f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    f"Content-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\nConnection: close\r\n\r\n"
                ).encode("latin-1")
                + data
            )
            await writer.drain()
            raw = await reader.read()
        finally:
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()
        head, _, payload = raw.partition(b"\r\n\r\n")
        return int(head.split(b" ", 2)[1]), json.loads(payload)

    async def _start(self) -> None:
        from repro.service import ServiceApp

        self._store = fresh_store(os.path.join(self.workdir, "service.sqlite"))
        self.app = ServiceApp(self._store, workers=2, executor="thread")
        await self.app.start("127.0.0.1", 0)
        self.port = self.app.port
        self.fingerprints = []
        for body in self.pool:
            status, reply = await self.request("POST", "/v1/runs?wait=1", body)
            if status != 200 or reply.get("status") != "done":
                raise RuntimeError(f"pre-populating the store failed: {reply}")
            self.fingerprints.append(reply["fingerprint"])
        self.unique_specs = len(self.pool)

    async def _stop(self) -> None:
        if self.app is not None:
            await self.app.close()
            self.app = None
        if self._store is not None:
            self._store.close()
            self._store = None

    def setup(self) -> None:
        panels = tuple(PANELS)
        size = 4 if self.shrink else 16
        self.pool = [
            self.spec(panels[i % len(panels)], self.sensor_seed("pool", i))
            for i in range(size)
        ]
        self.loop.run_until_complete(self._start())
        # Warm-up: one hit.
        status, reply = self.loop.run_until_complete(
            self.request("POST", "/v1/runs?wait=1", self.pool[0])
        )
        if status != 200 or not reply.get("cache_hit"):
            raise RuntimeError(f"warm-up hit failed: {reply}")

    def reset(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.run_until_complete(self._start())

    def requests(self, index: int) -> List[Tuple[str, str, Optional[dict]]]:
        rng = self.rng(index)
        panels = tuple(PANELS)
        batch = []
        for _ in range(self.HITS):
            batch.append(("POST", "/v1/runs?wait=1", rng.choice(self.pool)))
        for miss in range(self.MISSES):
            body = self.spec(
                panels[miss % len(panels)], self.sensor_seed("miss", index, miss)
            )
            batch.append(("POST", "/v1/runs?wait=1", body))
        for _ in range(self.TRACES):
            fingerprint = rng.choice(self.fingerprints)
            batch.append(("GET", f"/v1/runs/{fingerprint}?trace=1", None))
        rng.shuffle(batch)
        return batch

    async def _connection(self, queue, ops: List[Op]) -> None:
        for method, path, body in queue:
            with self.op_span():
                start = time.perf_counter()
                try:
                    status, reply = await self.request(method, path, body)
                except (OSError, ValueError, IndexError) as exc:
                    status, reply = None, f"raised {type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            ops.append(Op(elapsed, reply_failures(method, path, status, reply)))

    async def _cycle(self, batch) -> Tuple[List[Op], float]:
        ops: List[Op] = []
        queues = [batch[i:: self.CONNECTIONS] for i in range(self.CONNECTIONS)]
        start = time.perf_counter()
        await asyncio.gather(*(self._connection(q, ops) for q in queues))
        return ops, time.perf_counter() - start

    def run_cycle(self, index: int) -> Cycle:
        batch = self.requests(index)
        ops, wall = self.loop.run_until_complete(self._cycle(batch))
        self.unique_specs += self.MISSES
        return Cycle(ops, len(ops), wall)

    def final_checks(self) -> List[Tuple[str, List[str]]]:
        jobs = self.app.jobs
        executed = []
        if jobs.executed_runs != self.unique_specs:
            executed.append(
                f"executed {jobs.executed_runs} runs for "
                f"{self.unique_specs} unique specs"
            )
        if len(self._store) != self.unique_specs:
            executed.append(
                f"store holds {len(self._store)} rows for "
                f"{self.unique_specs} unique specs"
            )
        pick = self.rng("sample").randrange(len(self.pool))
        status, reply = self.loop.run_until_complete(
            self.request("GET", f"/v1/runs/{self.fingerprints[pick]}?trace=1")
        )
        local = self.corrupt(repro.run(self.pool[pick], backend="scalar"))
        identical = []
        if status != 200:
            identical.append(f"trace fetch answered {status}")
        elif json.loads(json.dumps(result_to_dict(local))) != reply["payload"]:
            identical.append("served payload differs from a local repro.run")
        identical += trace_failures(local)
        return [
            ("service.executed == unique specs", executed),
            ("served payload == local run", identical),
        ]

    def pass_counts(self) -> Dict[str, int]:
        """Executions and failed jobs since the store was pre-populated."""
        return {
            "service.executed": self.app.jobs.executed_runs - len(self.pool),
            "service.failed": self.app.jobs.job_counts()["failed"],
        }

    def close(self) -> None:
        self.loop.run_until_complete(self._stop())
        self.loop.run_until_complete(self.loop.shutdown_default_executor())
        self.loop.close()


WORKLOADS = {
    cls.name: cls for cls in (PaperPanels, SeedSweep, SignalChain, ServiceMixed)
}
