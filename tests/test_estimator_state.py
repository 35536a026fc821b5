"""Explicit estimator state records behind the pipeline's rollback.

Each estimator's ``snapshot()`` is a small explicit record (forecaster
``state()`` records, window tuples, counters, shallow cache copies).
These tests hold it to the behaviour of the deep copies it replaced:

* driven side by side with a twin that rolls back by deep-copying
  ``__dict__``, it gives bit-identical forecasts and ``search_stats()``;
* nothing the estimator does after a snapshot changes the snapshot;
* one snapshot restored twice gives identical continuations.

The golden digests pin whole scalar runs (``result_to_dict``, including
``defense_stats``) of fig2a and fig3b per defense strategy at their
default seeds.  The digests depend on the float results of numpy's
BLAS/LAPACK build, so a different build may need them regenerated.
"""

import copy
import hashlib
import json
import pickle

import numpy as np
import pytest

import repro
from repro.core.baselines import (
    HoldLastValuePredictor,
    KalmanChannelPredictor,
    LMSPredictor,
)
from repro.core.dead_reckoning import DeadReckoningEstimator
from repro.core.predictor import ChannelPredictor, RadarChannelEstimator
from repro.core.regressors import ARBasis
from repro.defense.estimator import SecureReconstructionEstimator
from repro.simulation.io import result_to_dict
from repro.simulation.scenario import fig2_scenario, fig3_scenario
from repro.types import RadarMeasurement


class _DeepCopyRollback:
    """Estimator rollback by deep copies of ``__dict__`` (the old way)."""

    def snapshot(self):
        return copy.deepcopy(self.__dict__)

    def restore(self, snapshot):
        self.__dict__ = copy.deepcopy(snapshot)


class _DeepCopyState:
    """Forecaster records as deep copies of ``__dict__`` — what
    :class:`DeadReckoningEstimator` deep-copied before."""

    def state(self):
        return copy.deepcopy(self.__dict__)

    def set_state(self, state):
        self.__dict__ = copy.deepcopy(state)


def _deep_copy_twin(obj, mixin):
    """A deep copy of ``obj`` whose class takes its rollback from ``mixin``."""
    cls = type(obj)
    twin = object.__new__(type(f"DeepCopy{cls.__name__}", (mixin, cls), {}))
    twin.__dict__.update(copy.deepcopy(obj.__dict__))
    return twin


FORECASTERS = {
    "rls": ChannelPredictor,
    "rls_ar": lambda: ChannelPredictor(basis=ARBasis(order=2)),
    "rls_adaptive": lambda: ChannelPredictor(adaptive_forgetting=True),
    "hold": HoldLastValuePredictor,
    "lms": LMSPredictor,
    "kalman": KalmanChannelPredictor,
}


def _radar(name):
    make = FORECASTERS[name]
    estimator = RadarChannelEstimator(make(), make())
    return estimator, _deep_copy_twin(estimator, _DeepCopyRollback)


def _dead_reckoning(name):
    estimator = DeadReckoningEstimator(FORECASTERS[name]())
    reference = copy.deepcopy(estimator)
    reference.leader_velocity_predictor = _deep_copy_twin(
        estimator.leader_velocity_predictor, _DeepCopyState
    )
    return estimator, reference


def _secure(**kwargs):
    estimator = SecureReconstructionEstimator(**kwargs)
    return estimator, _deep_copy_twin(estimator, _DeepCopyRollback)


CASES = {
    **{f"radar-{name}": (lambda n=name: _radar(n)) for name in FORECASTERS},
    **{
        f"dead_reckoning-{name}": (lambda n=name: _dead_reckoning(n))
        for name in ("rls", "kalman", "hold")
    },
    "secure_reconstruction": _secure,
    "secure_reconstruction-w4-s0": lambda: _secure(
        window=4, sparsity=0, transition_cache_size=2
    ),
}


def steps(start, stop, seed, corrupt=False):
    """A braking-leader stream that opens with a forecast (as the
    pipeline does right after a rollback) and forecasts at every fourth
    instant after that.

    ``corrupt`` adds the delay attack's +6 m offset, DoS-like spikes and
    jittered sample times (new interval lengths for the solver caches),
    the samples a rollback has to discard.
    """
    rng = np.random.default_rng(seed)
    out = []
    for k in range(start, stop):
        t = float(k) + (0.1 if corrupt and k % 2 else 0.0)
        follower_speed = 30.0 - 0.05 * t
        gap = 100.0 - 0.5 * t - 0.015 * t * t + rng.normal(0.0, 0.2)
        relative_velocity = -0.5 - 0.03 * t + rng.normal(0.0, 0.05)
        if corrupt:
            gap += 40.0 if k % 3 == 0 else 6.0
        kind = "forecast" if (k - start) % 4 == 0 else "observe"
        measurement = RadarMeasurement(
            time=t, distance=gap, relative_velocity=relative_velocity
        )
        out.append((kind, measurement, follower_speed))
    return out


def drive(estimator, stream):
    """Feed ``stream``; returns the forecasts (None while untrained)."""
    out = []
    for kind, measurement, follower_speed in stream:
        if kind == "observe":
            estimator.observe(measurement, follower_speed)
        elif estimator.trained:
            out.append(estimator.forecast(measurement.time, follower_speed))
        else:
            out.append(None)
    return out


def stats(estimator):
    search_stats = getattr(estimator, "search_stats", None)
    return search_stats() if search_stats is not None else None


@pytest.mark.parametrize("case", sorted(CASES))
class TestExplicitStateRecords:
    @pytest.mark.parametrize("k", [0, 1, 5])
    def test_matches_deep_copy_reference(self, case, k):
        estimator, reference = CASES[case]()
        start = 0
        # Three snapshot / k polluted steps / restore / continue cycles.
        for cycle in range(3):
            clean = steps(start, start + 14, seed=cycle)
            assert drive(estimator, clean) == drive(reference, clean)
            saved, saved_reference = estimator.snapshot(), reference.snapshot()
            start += 14
            polluted = steps(start, start + k, seed=10 + cycle, corrupt=True)
            assert drive(estimator, polluted) == drive(reference, polluted)
            assert stats(estimator) == stats(reference)
            estimator.restore(saved)
            reference.restore(saved_reference)
            assert stats(estimator) == stats(reference)
            start += k
        tail = steps(start, start + 20, seed=99)
        assert drive(estimator, tail) == drive(reference, tail)
        assert stats(estimator) == stats(reference)

    def test_later_calls_leave_snapshot_unchanged(self, case):
        estimator, _ = CASES[case]()
        drive(estimator, steps(0, 20, seed=1))
        saved = estimator.snapshot()
        frozen = pickle.dumps(saved)
        drive(estimator, steps(20, 30, seed=2, corrupt=True))
        assert pickle.dumps(saved) == frozen
        estimator.restore(saved)
        drive(estimator, steps(30, 45, seed=3))
        assert pickle.dumps(saved) == frozen

    def test_restoring_twice_gives_identical_continuations(self, case):
        estimator, _ = CASES[case]()
        drive(estimator, steps(0, 20, seed=1))
        saved = estimator.snapshot()
        drive(estimator, steps(20, 26, seed=2, corrupt=True))
        twin = copy.deepcopy(estimator)
        tail = steps(26, 50, seed=3)
        estimator.restore(saved)
        first = drive(estimator, tail)
        twin.restore(saved)
        assert drive(twin, tail) == first
        assert stats(twin) == stats(estimator)


def _digest(result):
    payload = json.dumps(result_to_dict(result), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: sha256 of ``json.dumps(result_to_dict(run), sort_keys=True)`` for a
#: scalar run at the panel's default seed, keyed by panel and defense
#: strategy (or a :data:`UNDEFENDED_RUNS` variant).  The strategy
#: digests were recorded with the deep-copy snapshots these records
#: replaced; the fig2a undefended and ``safety_filter`` digests with the
#: per-step ``SimulationResult.record`` calls that columnar recording
#: replaced; the fig2b/fig3a reconstruction digests with per-run window
#: geometries built by extension and eager ``ReconstructionCandidate``
#: lists.
GOLDEN_DIGESTS = {
    ("fig2a", "rls"):
        "c4b4b636a5cff5dd8c61d385adf030490b65a6d883b68a330d066918bb546f98",
    ("fig2a", "secure_reconstruction"):
        "14ec5ba2d352d72fb5ec2687ce867966ccfe73427c924ca55da583c34af222df",
    ("fig2a", "combined"):
        "14ec5ba2d352d72fb5ec2687ce867966ccfe73427c924ca55da583c34af222df",
    ("fig2b", "secure_reconstruction"):
        "e372a34ef7c29b3a1d024855edb57b30567d0a9cc80223852e544bb61189245f",
    ("fig2b", "combined"):
        "e372a34ef7c29b3a1d024855edb57b30567d0a9cc80223852e544bb61189245f",
    ("fig3a", "secure_reconstruction"):
        "d591c7023bf33cabb662f64d526891afa080fd0089770fbf8260a6ba2923f78b",
    ("fig3a", "combined"):
        "d591c7023bf33cabb662f64d526891afa080fd0089770fbf8260a6ba2923f78b",
    ("fig3b", "rls"):
        "fb055bbf087618179cf7bc1f4edab5f8496ccf03ef1cd35aa46e090e24c1c6d6",
    ("fig3b", "secure_reconstruction"):
        "6126935d54ed02a6db27188dd1d7e18f2fdf3950db6db3cf9e810d6a715f2e32",
    ("fig3b", "combined"):
        "6126935d54ed02a6db27188dd1d7e18f2fdf3950db6db3cf9e810d6a715f2e32",
    # Equal to rls: the filter is consulted every step but never clips
    # on fig2a.
    ("fig2a", "safety_filter"):
        "c4b4b636a5cff5dd8c61d385adf030490b65a6d883b68a330d066918bb546f98",
    ("fig2a", "attack_free_undefended"):
        "9c5cb44e000c0e921da64914609b70b7042f81b44d9beea2cf57a0113d37b028",
    # Collides at 188 s; the rest of the run senses the post-collision
    # gap floor.
    ("fig2a", "attacked_undefended"):
        "9bdb7ef67adecef2058670035e4ebbf42f9d326e24191cda582826c605854d69",
}

#: Golden variants that are run toggles rather than a defense strategy.
UNDEFENDED_RUNS = {
    "attack_free_undefended": {"attack_enabled": False, "defended": False},
    "attacked_undefended": {"defended": False},
}

PANELS = {
    "fig2a": lambda: fig2_scenario("dos"),
    "fig2b": lambda: fig2_scenario("delay"),
    "fig3a": lambda: fig3_scenario("dos"),
    "fig3b": lambda: fig3_scenario("delay"),
}


@pytest.mark.parametrize("panel,variant", sorted(GOLDEN_DIGESTS))
def test_golden_run_digest(panel, variant):
    toggles = UNDEFENDED_RUNS.get(variant, {"defense": variant})
    result = repro.run(PANELS[panel](), backend="scalar", **toggles)
    assert _digest(result) == GOLDEN_DIGESTS[(panel, variant)]
