"""Pipeline-facing estimator built on secure state reconstruction.

:class:`SecureReconstructionEstimator` plugs the subset-search solver of
:mod:`repro.defense.reconstruction` into the
:class:`~repro.core.predictor.MeasurementEstimator` slot of
:class:`~repro.core.pipeline.SafeMeasurementPipeline`.  It models the
*follower-relative* state ``x = [gap, Δv, a_L]`` (``Δv = v_L − v_F``,
``a_L`` the leader's acceleration held constant between samples — the
standard constant-acceleration target model) with the trusted follower
acceleration as input:

    gap[k+1] = gap[k] + T·Δv[k] + T²/2·(a_L[k] − a_F[k])
    Δv[k+1]  = Δv[k]  + T·a_L[k] − T·a_F[k]
    a_L[k+1] = a_L[k]

Estimating ``a_L`` from the window is what lets the model extrapolate a
braking leader through a long attack; leader *jerk* remains the
unmodelled disturbance (where the dead-reckoning RLS baseline, which
refits the trend at every trusted sample, can still win — the
defense-comparison bench quantifies this).

Every trusted sample extends a sliding window; each window is solved
twice — once with the **full** sensor set (consistency check / noise
smoothing) and once under the configured ``sparsity`` assumption (the
defense proper, plus the structural-guarantee report).  When the full
set is self-consistent its least-squares state is adopted; otherwise
the best *consistent, observable* sparse candidate is, and when even
that fails the previous state simply rolls forward on the model.

Forecasts report ``gap − margin_gain·σ_gap(t)`` where ``σ_gap`` is the
least-squares covariance of the reconstructed state propagated through
the model.  Noise in the window's ``Δv``/``a_L`` fit integrates into
gap error linearly/quadratically with the forecast horizon, so over a
minutes-long attack an *unbiased* estimate still drifts by many
metres; the margin turns that known uncertainty into conservatism
(shorter reported gap → earlier braking), mirroring the dead-reckoning
baseline's uncertainty band.

Honest caveat, surfaced via :attr:`guarantee_holds`: the radar's two
channels with ``s = 1`` are **not** 2-sparse observable — the
velocity-only subset cannot observe the gap — so unique recovery is not
structurally guaranteed for this plant (it needs redundant sensors; see
the tests for a 4-sensor double integrator where the guarantee holds).
The reconstruction still adds value as a model-consistency layer, and
the per-candidate reports say exactly what is and is not identifiable.
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.predictor import MeasurementEstimator
from repro.defense.reconstruction import (
    IncrementalWindowSolver,
    ReconstructionResult,
    SecureStateReconstruct,
    SSProblem,
    TransitionCache,
)
from repro.exceptions import ConfigurationError, EstimatorNotTrainedError
from repro.telemetry import core as _telemetry
from repro.types import RadarMeasurement

__all__ = ["follower_relative_system", "SecureReconstructionEstimator"]

#: Solver modes: ``incremental`` reuses cached window geometry across
#: steps (the default — bit-identical results, ~an order of magnitude
#: faster; see ``bench_defense_runtime``); ``from_scratch`` rebuilds the
#: solver every window (the pre-PR-10 behaviour, kept as the benchmark
#: baseline and as a cross-check in tests).
SOLVER_MODES = ("incremental", "from_scratch")


def follower_relative_system(
    sample_period: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(A, B, C)`` of the follower-relative gap model.

    State ``[gap, Δv, a_L]``, input ``a_F`` (trusted follower
    acceleration), the two radar channels measured directly
    (``C = [[1,0,0],[0,1,0]]`` — the leader acceleration is never
    measured, only inferred).  Discretized exactly for
    piecewise-constant accelerations over one ``sample_period``.
    """
    if sample_period <= 0.0:
        raise ConfigurationError(
            f"sample_period must be positive, got {sample_period}"
        )
    T = float(sample_period)
    A = np.array(
        [
            [1.0, T, 0.5 * T * T],
            [0.0, 1.0, T],
            [0.0, 0.0, 1.0],
        ]
    )
    B = np.array([[-0.5 * T * T], [-T], [0.0]])
    C = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    return A, B, C


def _transition_builder(dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Exact ``(A, B)`` for one interval — module-level, so the
    transition cache holds no bound method of the estimator."""
    A, B, _ = follower_relative_system(dt)
    return A, B


class SecureReconstructionEstimator(MeasurementEstimator):
    """Sliding-window secure state reconstruction as an estimator.

    Parameters
    ----------
    sample_period:
        Radar sampling period ``T``, seconds.
    window:
        Sliding-window length in samples (``≥ 2``).
    sparsity:
        Assumed maximum number of attacked sensors ``s`` for the sparse
        solve (``0 ≤ s < 2`` for the two radar channels).
    residual_threshold:
        RMS residual (measurement units) above which a candidate is
        rejected as inconsistent with the model.
    rank_tolerance:
        Singular-value tolerance of the observability checks.
    margin_gain:
        Multiple of the propagated gap standard deviation subtracted
        from forecast gaps (0 disables the margin).
    noise_floor:
        Lower bound on the measurement-noise scale used for the
        covariance (guards against near-zero residuals on very short
        windows).
    solver_mode:
        ``"incremental"`` (default) reuses cached window geometry via
        :class:`IncrementalWindowSolver`; ``"from_scratch"`` rebuilds
        :class:`SecureStateReconstruct` every window.  Both produce
        bit-identical estimates — the mode only trades runtime.
    transition_cache_size:
        LRU bound on the memoized per-``dt`` discretizations (distinct
        quantized interval durations; jittered sampling cannot grow the
        cache past this).
    """

    def __init__(
        self,
        sample_period: float = 1.0,
        window: int = 8,
        sparsity: int = 1,
        residual_threshold: float = 1.0,
        rank_tolerance: float = 1e-10,
        margin_gain: float = 2.0,
        noise_floor: float = 0.1,
        solver_mode: str = "incremental",
        transition_cache_size: int = 64,
    ):
        if window < 2:
            raise ConfigurationError(f"window must be >= 2, got {window}")
        if solver_mode not in SOLVER_MODES:
            raise ConfigurationError(
                f"solver_mode must be one of {SOLVER_MODES!r}, "
                f"got {solver_mode!r}"
            )
        if not 0 <= sparsity < 2:
            raise ConfigurationError(
                f"sparsity must leave an honest radar channel, got {sparsity}"
            )
        if residual_threshold <= 0.0:
            raise ConfigurationError(
                f"residual_threshold must be positive, got {residual_threshold}"
            )
        if margin_gain < 0.0:
            raise ConfigurationError(
                f"margin_gain must be >= 0, got {margin_gain}"
            )
        self.sample_period = float(sample_period)
        self.window = int(window)
        self.sparsity = int(sparsity)
        self.residual_threshold = float(residual_threshold)
        self.rank_tolerance = float(rank_tolerance)
        self.margin_gain = float(margin_gain)
        self.noise_floor = float(noise_floor)
        self.solver_mode = solver_mode
        self.A, self.B, self.C = follower_relative_system(self.sample_period)
        self._transition_cache = TransitionCache(
            _transition_builder, maxsize=transition_cache_size
        )
        self._solver = IncrementalWindowSolver(
            self.A,
            self.B,
            self.C,
            residual_threshold=self.residual_threshold,
            rank_tolerance=self.rank_tolerance,
            transition=self._transition_cache,
        )
        # Window rows: (time, gap, Δv, follower speed).
        self._samples: List[Tuple[float, float, float, float]] = []
        # Current reconstructed state: (time, x = [gap, Δv, a_L]).
        self._state: Optional[Tuple[float, np.ndarray]] = None
        # Covariance of the reconstructed state, rolled with it.
        self._cov: Optional[np.ndarray] = None
        # Most recent trusted/forecast ego speed, for input estimation.
        self._last_speed: Optional[Tuple[float, float]] = None
        #: Sparse-solve report for the latest window (None before data).
        self.last_result: Optional[ReconstructionResult] = None
        #: Windows where the full sensor set failed the consistency
        #: check (model disagreement — attack or unmodelled manoeuvre).
        self.inconsistent_windows = 0
        #: Windows where even the sparse search had no usable candidate.
        self.fallback_windows = 0
        #: Windows solved (both the s=0 and sparse passes count as one).
        self.windows_solved = 0
        #: Sensor-subset hypotheses examined / eliminated across all
        #: windows (aggregated from :class:`ReconstructionResult`).
        self.subsets_searched = 0
        self.subsets_pruned = 0

    # ------------------------------------------------------------------

    @property
    def trained(self) -> bool:
        return self._state is not None

    @property
    def guarantee_holds(self) -> Optional[bool]:
        """Latest window's 2s-sparse observability verdict (None = no data)."""
        return self.last_result.guaranteed if self.last_result else None

    def _transition(self, dt: float):
        """Exact ``(A, B)`` for one interval of duration ``dt``."""
        return self._transition_cache(dt)

    def _reconstruct(self) -> None:
        """Solve the current window and update the state estimate."""
        tele = _telemetry.current()
        started = perf_counter() if tele is not None else 0.0
        window = np.asarray(self._samples)
        ys = window[:, 1:3]
        times = window[:, 0]
        speeds = window[:, 3]
        # Trusted samples are not uniformly spaced (challenge instants
        # and alarm periods leave holes); each interval gets its exact
        # discretization or the fitted trend skews.
        dts = times[1:] - times[:-1]
        # Follower accelerations over the window, from trusted speeds.
        us = np.zeros((len(dts), 1))
        np.divide(
            speeds[1:] - speeds[:-1], dts, out=us[:, 0], where=dts > 1e-9
        )
        end_time = float(times[-1])
        sparsities = (0,) if self.sparsity == 0 else (0, self.sparsity)

        if self.solver_mode == "incremental":
            hits_before = self._solver.geometry_hits
            results = self._solver.solve_many(ys, us, dts, sparsities)
            cache_hit = self._solver.geometry_hits > hits_before
        else:
            cache_hit = False
            results = {
                s: SecureStateReconstruct(
                    SSProblem(
                        self.A, self.B, self.C, ys, us=us, s=s, dts=dts
                    ),
                    residual_threshold=self.residual_threshold,
                    rank_tolerance=self.rank_tolerance,
                    transition=self._transition_cache,
                ).solve()
                for s in sparsities
            }

        # Full-set consistency check (s = 0): both channels must agree
        # with the dynamics.  Its single candidate doubles as a
        # least-squares smoother when it passes.
        full = results[0]
        # Sparse solve: the defense proper, and the guarantee report.
        sparse = results[sparsities[-1]]
        self.last_result = sparse

        self.windows_solved += 1
        searched = sum(r.subsets_searched for r in results.values())
        pruned = sum(r.subsets_pruned for r in results.values())
        self.subsets_searched += searched
        self.subsets_pruned += pruned
        if tele is not None:
            tele.emit(
                "defense.reconstruct",
                perf_counter() - started,
                attrs={
                    "window": int(len(ys)),
                    "subsets": searched,
                    "cache_hit": cache_hit,
                },
            )
            tele.incr("defense.windows")
            tele.incr("defense.subsets", searched)
            tele.incr("defense.subsets_pruned", pruned)
            tele.incr(
                "defense.geometry_hits" if cache_hit else "defense.geometry_misses"
            )

        if full.best is not None:
            self._adopt(end_time, full.best)
            return
        self.inconsistent_windows += 1
        if sparse.best is not None:
            self._adopt(end_time, sparse.best)
            return
        self.fallback_windows += 1
        # No subset explains the window — keep the model-rolled state
        # (set by the roll in observe()); nothing else is trustworthy.

    def search_stats(self) -> Dict[str, int]:
        """Subset-search and cache counters for run-level reporting.

        Returned dict is JSON-serializable and flows into
        :attr:`repro.simulation.results.SimulationResult.defense_stats`
        (surfaced by the report's Defense comparison panel).
        """
        return {
            "windows_solved": self.windows_solved,
            "subsets_searched": self.subsets_searched,
            "subsets_pruned": self.subsets_pruned,
            "inconsistent_windows": self.inconsistent_windows,
            "fallback_windows": self.fallback_windows,
            "geometry_hits": self._solver.geometry_hits,
            "geometry_extensions": self._solver.geometry_extensions,
            "geometry_misses": self._solver.geometry_misses,
            "transition_hits": self._transition_cache.hits,
            "transition_misses": self._transition_cache.misses,
            "transition_evictions": self._transition_cache.evictions,
        }

    def snapshot(self) -> object:
        """The window rows, reconstructed state, report and counters,
        plus the solver's and transition cache's records.

        ``_state``/``_cov``/``last_result`` are replaced, never written,
        so they are shared; the window is frozen into a tuple.  The
        caches and their counters roll back with the rest, so the
        :meth:`search_stats` a run stores in its ``defense_stats`` count
        only the steps that survived the rollback.
        """
        return (
            tuple(self._samples),
            self._state,
            self._cov,
            self._last_speed,
            self.last_result,
            self.inconsistent_windows,
            self.fallback_windows,
            self.windows_solved,
            self.subsets_searched,
            self.subsets_pruned,
            self._solver.state(),
            self._transition_cache.state(),
        )

    def restore(self, snapshot: object) -> None:
        """Roll back to a record captured by :meth:`snapshot`."""
        (
            samples,
            self._state,
            self._cov,
            self._last_speed,
            self.last_result,
            self.inconsistent_windows,
            self.fallback_windows,
            self.windows_solved,
            self.subsets_searched,
            self.subsets_pruned,
            solver,
            transitions,
        ) = snapshot  # type: ignore[misc]
        self._samples = list(samples)
        self._solver.set_state(solver)
        self._transition_cache.set_state(transitions)

    def _adopt(self, end_time: float, candidate) -> None:
        """Take a candidate's end-of-window state and its covariance."""
        self._state = (end_time, candidate.x_end.copy())
        if candidate.x_end_covariance is not None:
            sigma = max(candidate.residual, self.noise_floor)
            self._cov = candidate.x_end_covariance * sigma * sigma
        else:
            self._cov = None

    def observe(
        self, measurement: RadarMeasurement, follower_speed: Optional[float] = None
    ) -> None:
        """Ingest one trusted measurement plus the trusted ego speed."""
        if follower_speed is None:
            raise ValueError(
                "SecureReconstructionEstimator requires the trusted follower speed"
            )
        if self._state is not None:
            self._roll(measurement.time, follower_speed)
        self._samples.append(
            (
                measurement.time,
                measurement.distance,
                measurement.relative_velocity,
                follower_speed,
            )
        )
        del self._samples[: -self.window]
        self._last_speed = (measurement.time, follower_speed)
        if len(self._samples) >= 2:
            self._reconstruct()

    # ------------------------------------------------------------------

    def _roll(self, to_time: float, follower_speed: float) -> None:
        """Propagate the reconstructed state to ``to_time`` on the model."""
        assert self._state is not None
        time, x = self._state
        if to_time <= time + 1e-9:
            return
        if self._last_speed is not None and to_time > self._last_speed[0] + 1e-9:
            accel = (follower_speed - self._last_speed[1]) / (
                to_time - self._last_speed[0]
            )
        else:
            accel = 0.0
        while time + 1e-9 < to_time:
            step = min(self.sample_period, to_time - time)
            if abs(step - self.sample_period) <= 1e-9:
                A, B = self.A, self.B
            else:
                A, B, _ = follower_relative_system(step)
            x = A @ x + B[:, 0] * accel
            if self._cov is not None:
                self._cov = A @ self._cov @ A.T
            time += step
        x = x.copy()
        x[0] = max(0.0, x[0])
        self._state = (time, x)

    def forecast(
        self, time: float, follower_speed: Optional[float] = None
    ) -> Tuple[float, float]:
        """Model-rolled ``(gap, Δv)`` from the last reconstructed state."""
        if follower_speed is None:
            raise ValueError(
                "SecureReconstructionEstimator requires the trusted follower speed"
            )
        if not self.trained:
            raise EstimatorNotTrainedError(
                "secure-reconstruction estimator has no solved window yet"
            )
        self._roll(time, follower_speed)
        self._last_speed = (time, follower_speed)
        x = self._state[1]
        gap = float(x[0]) - self.margin()
        return max(0.0, gap), float(x[1])

    def margin(self) -> float:
        """Current gap-uncertainty margin, metres (0 when disabled)."""
        if self._cov is None or self.margin_gain <= 0.0:
            return 0.0
        variance = max(0.0, float(self._cov[0, 0]))
        return self.margin_gain * float(np.sqrt(variance))
