"""RLS-based forecasting of sensor channels during an attack (paper §5.3).

While the sensor is trusted, a :class:`ChannelPredictor` feeds every
measurement through Algorithm 1, continuously refining a local model of
the channel.  Once the CRA detector flags an attack, the corrupted
stream is ignored and the predictor *forecasts* the channel from the
frozen weights — for a polynomial basis by evaluating the fitted trend
at the future time, for an AR basis by rolling the one-step predictor
forward on its own outputs.

:class:`RadarChannelEstimator` bundles two predictors for the radar's
two channels (distance and relative velocity).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import List, Optional, Tuple

import numpy as np

from repro.core.regressors import PolynomialBasis, RegressorBasis
from repro.core.rls import RLSEstimator
from repro.exceptions import EstimatorNotTrainedError
from repro.types import RadarMeasurement

__all__ = [
    "Forecaster",
    "ChannelPredictor",
    "MeasurementEstimator",
    "RadarChannelEstimator",
]


class Forecaster(ABC):
    """Common interface of all channel forecasters (RLS and baselines).

    A forecaster is *trained online* with :meth:`observe` while the
    sensor is trusted and *queried* with :meth:`forecast` while it is
    not.  Implementations must tolerate interleaved observe/forecast
    calls (attacks can end and restart).

    :meth:`state`/:meth:`set_state` capture and restore everything
    training changes, as a record that later calls never modify; the
    estimators build their rollback snapshots from these records.
    """

    @abstractmethod
    def observe(self, time: float, value: float) -> None:
        """Ingest one trusted sample."""

    @abstractmethod
    def forecast(self, time: float) -> float:
        """Predict the channel value at ``time`` (>= last observed time)."""

    @property
    @abstractmethod
    def trained(self) -> bool:
        """True once enough samples have been observed to forecast."""

    @abstractmethod
    def state(self) -> object:
        """The training state, as a record later calls never modify."""

    @abstractmethod
    def set_state(self, state: object) -> None:
        """Return to a record captured by :meth:`state`."""


class ChannelPredictor(Forecaster):
    """RLS forecaster for one scalar sensor channel.

    Parameters
    ----------
    basis:
        Regressor construction; defaults to a linear trend
        (``PolynomialBasis(degree=1)``), which extrapolates the
        recent slope of the channel — with exponential forgetting this
        behaves like a local linear fit.
    forgetting:
        Algorithm 1's ``λ``; smaller values weight recent samples more.
    delta:
        Initial correlation scale ``P_0 = δ I``.  The paper uses δ = 1,
        which acts as a ridge prior shrinking the fitted trend toward
        zero and biases long-horizon forecasts; the larger default
        follows Haykin's high-SNR guidance (see DESIGN.md).
    time_scale:
        Normalization constant for polynomial time regressors, seconds.
    sample_period:
        Spacing used when rolling AR forecasts forward, seconds.
    min_training_samples:
        Observations required before :attr:`trained` turns True.
    adaptive_forgetting:
        Variable-forgetting-factor RLS: when a sample's a-priori error
        is large relative to the running residual level (a regime
        change — e.g. the leader starts emergency braking), the
        per-step ``λ`` is reduced toward ``min_forgetting`` so the old
        regime's data is flushed quickly.  With well-behaved residuals
        the effective ``λ`` stays at the configured value, so the
        paper's stationary scenarios are unaffected.
    min_forgetting:
        Floor of the adaptive per-step ``λ``.
    """

    def __init__(
        self,
        basis: Optional[RegressorBasis] = None,
        forgetting: float = 0.95,
        delta: float = 100.0,
        time_scale: float = 100.0,
        sample_period: float = 1.0,
        min_training_samples: int = 5,
        adaptive_forgetting: bool = False,
        min_forgetting: float = 0.5,
    ):
        if time_scale <= 0.0:
            raise ValueError(f"time_scale must be positive, got {time_scale}")
        if sample_period <= 0.0:
            raise ValueError(f"sample_period must be positive, got {sample_period}")
        if min_training_samples < 1:
            raise ValueError(
                f"min_training_samples must be >= 1, got {min_training_samples}"
            )
        if not 0.0 < min_forgetting <= forgetting:
            raise ValueError(
                f"min_forgetting must lie in (0, forgetting], got {min_forgetting}"
            )
        self.basis = basis if basis is not None else PolynomialBasis(degree=1)
        self.adaptive_forgetting = bool(adaptive_forgetting)
        self.min_forgetting = float(min_forgetting)
        self.rls = RLSEstimator(
            n_params=self.basis.n_params, forgetting=forgetting, delta=delta
        )
        self.time_scale = float(time_scale)
        self.sample_period = float(sample_period)
        self.min_training_samples = int(min_training_samples)
        self._history: List[Tuple[float, float]] = []
        self._reference_time: Optional[float] = None
        self._rollout: List[Tuple[float, float]] = []
        self._residual_variance = 0.0

    # ------------------------------------------------------------------

    def _normalize(self, time: float) -> float:
        reference = self._reference_time if self._reference_time is not None else time
        return (time - reference) / self.time_scale

    @property
    def trained(self) -> bool:
        return (
            len(self._history) >= self.min_training_samples
            and self.rls.n_updates >= self.min_training_samples
        )

    @property
    def last_observation(self) -> Optional[Tuple[float, float]]:
        """Most recent trusted ``(time, value)``, or None."""
        return self._history[-1] if self._history else None

    @property
    def residual_std(self) -> float:
        """Exponentially-weighted one-step residual standard deviation."""
        return float(np.sqrt(max(0.0, self._residual_variance)))

    def state(self) -> tuple:
        """RLS weights/covariance/count, the sample history, the AR
        rollout cache, the time reference and the residual level.

        The RLS arrays are shared (they are replaced, never written);
        the two lists are frozen into tuples of ``(t, v)`` pairs.
        """
        return (
            self.rls.state(),
            tuple(self._history),
            tuple(self._rollout),
            self._reference_time,
            self._residual_variance,
        )

    def set_state(self, state: tuple) -> None:
        """Return to a record captured by :meth:`state`."""
        rls, history, rollout, reference_time, residual_variance = state
        self.rls.set_state(rls)
        self._history = list(history)
        self._rollout = list(rollout)
        self._reference_time = reference_time
        self._residual_variance = residual_variance

    def observe(self, time: float, value: float) -> None:
        """Feed one trusted sample through Algorithm 1."""
        if self._reference_time is None:
            self._reference_time = time
        regressor = self.basis.regressor(self._normalize(time), self._history)
        # AR bases cannot form a regressor until enough history exists;
        # the sample still extends the history for later regressors.
        if regressor is not None:
            step_forgetting = self._step_forgetting(regressor, value)
            warmed_up = self.rls.n_updates >= self.min_training_samples
            step = self.rls.update(regressor, value, forgetting=step_forgetting)
            # Exponentially-weighted residual variance; feeds the
            # forecast-uncertainty estimate in prediction_std().  The
            # convergence transient (w0 = 0 prior) is excluded — its
            # huge early errors would otherwise inflate the residual
            # level for hundreds of samples.
            if warmed_up:
                lam = self.rls.forgetting
                self._residual_variance = lam * self._residual_variance + (
                    1.0 - lam
                ) * (step.error * step.error)
        self._history.append((time, value))
        self._rollout = []  # trusted data invalidates any rollout cache

    def _step_forgetting(self, regressor, value: float) -> Optional[float]:
        """Per-step ``λ`` for variable-forgetting-factor adaptation.

        ``λ_k = max(λ_min, λ0 · exp(-(e / 3σ̂)²))`` — unity factor for
        in-noise errors, sharp memory dump for multi-sigma surprises.
        Returns None (use the configured λ) when adaptation is off or
        no residual level is established yet.
        """
        if not self.adaptive_forgetting:
            return None
        if self.rls.n_updates < self.min_training_samples:
            return None
        sigma = self.residual_std
        if sigma <= 1e-12:
            return None
        error = value - self.rls.predict(regressor)
        normalized = error / (3.0 * sigma)
        ratio = normalized * normalized
        factor = float(np.exp(-min(50.0, ratio)))
        return max(self.min_forgetting, self.rls.forgetting * factor)

    def forecast(self, time: float) -> float:
        """Predict the channel at ``time`` from the frozen weights.

        For history-free bases this evaluates the fitted trend directly;
        for AR bases the one-step predictor is rolled forward in
        ``sample_period`` steps, feeding predictions back as inputs.
        """
        if not self.trained:
            raise EstimatorNotTrainedError(
                f"forecast at t={time} requested after only "
                f"{len(self._history)} observations "
                f"(need {self.min_training_samples})"
            )
        if not self.basis.uses_history:
            regressor = self.basis.regressor(self._normalize(time), self._history)
            return self.rls.predict(regressor)

        # Roll the AR predictor forward on a synthetic history that
        # starts from the real one and accumulates its own predictions.
        return self._forecast_ar(time)

    def _forecast_ar(self, time: float) -> float:
        if not self._rollout:
            self._rollout = list(self._history)
        tolerance = 1e-9
        while self._rollout[-1][0] + tolerance < time:
            next_time = self._rollout[-1][0] + self.sample_period
            regressor = self.basis.regressor(self._normalize(next_time), self._rollout)
            if regressor is None:
                raise EstimatorNotTrainedError(
                    "insufficient history to roll the AR predictor forward"
                )
            self._rollout.append((next_time, self.rls.predict(regressor)))
        return self._rollout[-1][1]

    def prediction_std(self, time: float) -> float:
        """Standard deviation of the forecast at ``time``.

        Uses the RLS uncertainty propagation ``σ̂² h(t)ᵀ P h(t)`` with
        the exponentially-weighted residual variance ``σ̂²`` — for a
        polynomial basis this grows with the extrapolation horizon,
        which is what safety margins on long forecasts need.

        The variance scale is floored at 1: ``hᵀPh`` measures the
        *estimation* variance assuming the model class is right, which
        goes to zero with data; after a regime change the model is
        *biased* and keeps mispredicting by about one residual standard
        deviation per step, so ``σ̂`` itself is the honest floor.

        Only defined for history-free bases (an AR rollout compounds its
        own predictions and has no closed-form variance here); returns
        0.0 for history-dependent bases.
        """
        if not self.trained:
            raise EstimatorNotTrainedError("no trained model to assess")
        if self.basis.uses_history:
            return 0.0
        regressor = self.basis.regressor(self._normalize(time), self._history)
        h = np.asarray(regressor, dtype=float).reshape(-1)
        P = self.rls.correlation
        if h.shape[0] == 2:
            # Component-wise quadratic form hᵀ P h — fixed association,
            # no BLAS/FMA, mirrored exactly by the vectorized engine.
            u0 = h[0] * P[0, 0] + h[1] * P[1, 0]
            u1 = h[0] * P[0, 1] + h[1] * P[1, 1]
            scale = float(u0 * h[0] + u1 * h[1])
        else:
            scale = float(h @ P @ h)
        return float(np.sqrt(max(0.0, self._residual_variance * max(scale, 1.0))))


class MeasurementEstimator(ABC):
    """Interface of the estimator block of Figure 1.

    Consumes trusted :class:`~repro.types.RadarMeasurement` samples and,
    on demand, produces the ``(d̂, Δv̂)`` estimates that feed the
    upper-level controller during an attack.  Implementations may use
    the trusted follower speed (the paper assumes ``v_F`` is measured by
    an unattacked sensor); ones that do not simply ignore it.

    ``snapshot``/``restore`` support the pipeline's rollback of
    unauthenticated training data: the pipeline snapshots the estimator
    at every *clean* challenge response and, when an attack is detected,
    rolls back to the last authenticated state (samples between the last
    clean challenge and the detection may already be corrupted).

    Snapshot contract: a snapshot is an explicit record of exactly the
    fields that observe/forecast change — forecaster records
    (:meth:`Forecaster.state`), sample windows as tuples, counters —
    and nothing observe/forecast do afterwards may change it.  A record
    may share an object with the live estimator only when nothing
    writes into it afterwards: arrays that updates replace rather than
    modify (RLS weights, the reconstructed state) and cache entries
    that are pure functions of their key (dt-keyed solver geometries
    and transitions), which is why sharing them is safe.  Mutable
    containers (lists, LRU dicts) are copied on both sides, so
    :meth:`restore` leaves the snapshot intact and one snapshot can be
    restored any number of times.
    """

    @property
    @abstractmethod
    def trained(self) -> bool:
        """True once the estimator can forecast."""

    @abstractmethod
    def observe(
        self, measurement: RadarMeasurement, follower_speed: Optional[float] = None
    ) -> None:
        """Ingest one trusted measurement."""

    @abstractmethod
    def forecast(
        self, time: float, follower_speed: Optional[float] = None
    ) -> Tuple[float, float]:
        """Estimated ``(distance, relative_velocity)`` at ``time``."""

    @abstractmethod
    def snapshot(self) -> object:
        """Capture the estimator state as an explicit record."""

    @abstractmethod
    def restore(self, snapshot: object) -> None:
        """Roll back to a record captured by :meth:`snapshot`."""


class RadarChannelEstimator(MeasurementEstimator):
    """Independent per-channel forecasters — the paper's literal §5.3.

    Each radar channel (distance, relative velocity) is modelled by its
    own Algorithm 1 RLS forecaster, with no physical coupling between
    them.  Simple and faithful to the text, but open-loop during the
    attack: see :mod:`repro.core.dead_reckoning` for the failure mode on
    long attacks and the coupled alternative.
    """

    def __init__(
        self,
        distance_predictor: Optional[Forecaster] = None,
        velocity_predictor: Optional[Forecaster] = None,
    ):
        self.distance_predictor = (
            distance_predictor if distance_predictor is not None else ChannelPredictor()
        )
        self.velocity_predictor = (
            velocity_predictor if velocity_predictor is not None else ChannelPredictor()
        )

    @property
    def trained(self) -> bool:
        """True when both channels can forecast."""
        return self.distance_predictor.trained and self.velocity_predictor.trained

    def observe(
        self, measurement: RadarMeasurement, follower_speed: Optional[float] = None
    ) -> None:
        """Ingest one trusted measurement into both channels."""
        self.distance_predictor.observe(measurement.time, measurement.distance)
        self.velocity_predictor.observe(
            measurement.time, measurement.relative_velocity
        )

    def forecast(
        self, time: float, follower_speed: Optional[float] = None
    ) -> Tuple[float, float]:
        """Estimated ``(distance, relative_velocity)`` at ``time``."""
        return (
            self.distance_predictor.forecast(time),
            self.velocity_predictor.forecast(time),
        )

    def snapshot(self) -> object:
        """The two channel forecasters' state records."""
        return self.distance_predictor.state(), self.velocity_predictor.state()

    def restore(self, snapshot: object) -> None:
        """Roll both channels back to ``snapshot``."""
        distance, velocity = snapshot  # type: ignore[misc]
        self.distance_predictor.set_state(distance)
        self.velocity_predictor.set_state(velocity)
