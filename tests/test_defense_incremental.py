"""Incremental secure-reconstruction solver (repro.defense.reconstruction).

PR 10's contract: the batched subset kernels and the geometry-caching
:class:`IncrementalWindowSolver` are **bit-identical** to a from-scratch
:class:`SecureStateReconstruct` on every window — same candidates, same
arrays, ``==`` not ``allclose`` — across uniform windows, the
non-uniform windows challenge-instant holes leave, sensor counts
2/4/6, cache-eviction boundaries and growing windows.  Plus the
bounded caches themselves (:class:`TransitionCache` quantization/LRU,
the per-solver geometry LRU, the process-wide geometry memo and its
thread safety) and a per-window lock-step check of the estimator
against from-scratch solves.
"""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.defense import (
    SecureReconstructionEstimator,
    SecureStateReconstruct,
    SSProblem,
)
from repro.defense import reconstruction
from repro.defense.estimator import _transition_builder
from repro.defense.reconstruction import (
    IncrementalWindowSolver,
    TransitionCache,
    _build_geometry,
    _geometry_key,
    _SubsetKernel,
)
from repro.exceptions import ConfigurationError
from repro.simulation import result_to_dict
from repro.types import RadarMeasurement


def continuous_double_integrator(dt):
    """Exact discretization of the 1-D double integrator over ``dt``."""
    A = np.array([[1.0, dt], [0.0, 1.0]])
    B = np.array([[0.5 * dt * dt], [dt]])
    return A, B


def sensor_matrix(p):
    """``p`` redundant sensors over the 2-state double integrator."""
    rng = np.random.default_rng(900 + p)
    C = rng.standard_normal((p, 2))
    C[:, 0] += 1.0  # every sensor sees position: all subsets observable
    return C


def measurement_stream(p, steps, seed=7):
    """A noisy trajectory sampled by ``p`` sensors, with inputs."""
    rng = np.random.default_rng(seed)
    C = sensor_matrix(p)
    A, B = continuous_double_integrator(1.0)
    x = np.array([30.0, -1.5])
    us = 0.2 * rng.standard_normal((steps - 1, 1))
    ys = [C @ x + 0.01 * rng.standard_normal(p)]
    for k in range(steps - 1):
        x = A @ x + B @ us[k]
        ys.append(C @ x + 0.01 * rng.standard_normal(p))
    return np.array(ys), us, C, A, B


def results_equal(a, b):
    """Bitwise equality of two ReconstructionResults — no tolerance."""
    if a is None or b is None:
        return a is b
    if (
        a.guaranteed != b.guaranteed
        or a.subsets_searched != b.subsets_searched
        or a.subsets_pruned != b.subsets_pruned
        or a.unobservable_subsets != b.unobservable_subsets
        or len(a.candidates) != len(b.candidates)
    ):
        return False
    for ca, cb in zip(a.candidates, b.candidates):
        if (
            ca.sensors != cb.sensors
            or ca.attacked != cb.attacked
            or ca.residual != cb.residual
            or ca.observable != cb.observable
            or not np.array_equal(ca.x0, cb.x0)
            or not np.array_equal(ca.x_end, cb.x_end)
        ):
            return False
        if (ca.x_end_covariance is None) != (cb.x_end_covariance is None):
            return False
        if ca.x_end_covariance is not None and not np.array_equal(
            ca.x_end_covariance, cb.x_end_covariance
        ):
            return False
    return True


class TestBatchedMatchesNaive:
    """The batched kernel agrees with the historical per-subset loop."""

    @pytest.mark.parametrize("p,s", [(2, 1), (4, 1), (4, 2), (6, 2)])
    def test_same_classification_and_states(self, p, s):
        ys, us, C, A, B = measurement_stream(p, 8)
        solver = SecureStateReconstruct(
            SSProblem(A, B, C, ys, us=us, s=s), residual_threshold=0.5
        )
        batched, naive = solver.solve(), solver.solve_naive()
        assert batched.subsets_searched == naive.subsets_searched
        assert batched.subsets_pruned == naive.subsets_pruned
        for cb, cn in zip(batched.candidates, naive.candidates):
            assert cb.sensors == cn.sensors
            assert cb.observable == cn.observable
            assert cb.residual == pytest.approx(cn.residual, abs=1e-9)
            np.testing.assert_allclose(cb.x0, cn.x0, atol=1e-8)
            np.testing.assert_allclose(cb.x_end, cn.x_end, atol=1e-8)

    def test_best_state_reads_the_best_candidate(self):
        ys, us, C, A, B = measurement_stream(4, 8)
        ys[:, 2] += 30.0  # one attacked sensor
        solver = SecureStateReconstruct(
            SSProblem(A, B, C, ys, us=us, s=1), residual_threshold=0.5
        )
        for result in (solver.solve(), solver.solve_naive()):
            x_end, covariance, residual = result.best_state()
            assert np.array_equal(x_end, result.best.x_end)
            assert np.array_equal(covariance, result.best.x_end_covariance)
            assert residual == result.best.residual

    def test_search_accounting_fields(self):
        # subsets_searched counts every C(p, p-s) hypothesis; pruned is
        # the complement of the consistent set.
        ys, us, C, A, B = measurement_stream(4, 8)
        ys[:, 2] += 30.0  # one attacked sensor
        result = SecureStateReconstruct(
            SSProblem(A, B, C, ys, us=us, s=1), residual_threshold=0.5
        ).solve()
        assert result.subsets_searched == 4
        assert (
            result.subsets_searched - result.subsets_pruned
            == len(result.consistent)
        )
        assert result.subsets_pruned >= 1  # the poisoned subsets fail


class TestIncrementalBitIdentity:
    """Incremental solve == from-scratch solve, bit for bit."""

    @pytest.mark.parametrize("p", [2, 4, 6])
    @pytest.mark.parametrize("uniform", [True, False], ids=["uniform", "holes"])
    def test_sliding_stream_matches_from_scratch(self, p, uniform):
        T = 6
        steps = 14
        ys, us, C, A, B = measurement_stream(p, steps + T)
        s = 1 if p < 6 else 2
        # Challenge-instant holes: a long interval moves through the
        # window, so consecutive dt-tuples differ (cache misses).
        base = np.ones(steps + T - 1)
        if not uniform:
            base[::5] = 2.0
        solver = IncrementalWindowSolver(
            A,
            B,
            C,
            residual_threshold=0.5,
            transition=continuous_double_integrator,
        )
        for k in range(steps):
            dts = None if uniform else base[k : k + T - 1]
            incremental = solver.solve(
                ys[k : k + T], us[k : k + T - 1], dts, s
            )
            scratch = SecureStateReconstruct(
                SSProblem(A, B, C, ys[k : k + T], us=us[k : k + T - 1], s=s, dts=dts),
                residual_threshold=0.5,
                transition=continuous_double_integrator,
            ).solve()
            assert results_equal(incremental, scratch), (p, uniform, k)
        if uniform:
            assert solver.geometry_hits == steps - 1

    def test_growing_window_counts_extensions(self):
        # A miss whose window minus its newest sample is cached counts
        # as an extension (defense_stats keeps that counter), and the
        # result stays bit-identical to a fresh build.
        ys, us, C, A, B = measurement_stream(3, 10)
        solver = IncrementalWindowSolver(A, B, C, residual_threshold=0.5)
        for T in range(2, 10):
            grown = solver.solve(ys[:T], us[: T - 1], None, 1)
            scratch = SecureStateReconstruct(
                SSProblem(A, B, C, ys[:T], us=us[: T - 1], s=1),
                residual_threshold=0.5,
            ).solve()
            assert results_equal(grown, scratch), T
        assert solver.geometry_extensions == 7  # every T after the first
        assert solver.geometry_misses == 1

    def test_eviction_boundary_stays_correct(self):
        # A solver whose geometry LRU holds a single entry thrashes on
        # alternating dt-tuples; results must not change.
        ys, us, C, A, B = measurement_stream(2, 20)
        tight = IncrementalWindowSolver(
            A,
            B,
            C,
            residual_threshold=0.5,
            transition=continuous_double_integrator,
            max_geometries=1,
        )
        roomy = IncrementalWindowSolver(
            A,
            B,
            C,
            residual_threshold=0.5,
            transition=continuous_double_integrator,
        )
        dts_a = np.ones(5)
        dts_b = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        for k, dts in zip(range(8), [dts_a, dts_b] * 4):
            a = tight.solve(ys[k : k + 6], us[k : k + 5], dts, 1)
            b = roomy.solve(ys[k : k + 6], us[k : k + 5], dts, 1)
            assert results_equal(a, b), k
        assert tight.cached_geometries == 1
        assert tight.geometry_hits == 0  # every step evicted the other key
        assert roomy.geometry_hits == 6

    def test_validation(self):
        ys, us, C, A, B = measurement_stream(2, 6)
        with pytest.raises(ConfigurationError, match="max_geometries"):
            IncrementalWindowSolver(A, B, C, max_geometries=0)
        with pytest.raises(ConfigurationError, match="residual_threshold"):
            IncrementalWindowSolver(A, B, C, residual_threshold=0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        p=st.integers(2, 4),
        repeats=st.integers(1, 3),
    )
    def test_property_cache_hits_never_change_results(self, seed, p, repeats):
        # Solving the same window again (a guaranteed geometry-cache
        # hit) returns bitwise the same result as the first, cold solve.
        ys, us, C, A, B = measurement_stream(p, 8, seed=seed)
        solver = IncrementalWindowSolver(A, B, C, residual_threshold=0.5)
        cold = solver.solve(ys, us, None, 1)
        misses = solver.geometry_misses
        for _ in range(repeats):
            warm = solver.solve(ys, us, None, 1)
            assert results_equal(cold, warm)
        assert solver.geometry_misses == misses  # all hits
        assert solver.geometry_hits >= repeats


class TestTransitionCache:
    @staticmethod
    def _builder_calls():
        calls = []

        def builder(dt):
            calls.append(dt)
            return continuous_double_integrator(dt)

        return calls, builder

    def test_quantized_keys_absorb_float_jitter(self):
        calls, builder = self._builder_calls()
        cache = TransitionCache(builder, maxsize=4)
        a = cache(1.0)
        b = cache(1.0 + 2e-10)  # below the 1e-9 quantization step
        assert b is a
        assert (cache.hits, cache.misses, len(cache)) == (1, 1, 1)
        # The builder saw the quantized value, so equal keys always map
        # to identical matrices.
        assert calls == [1.0]

    def test_lru_bound_and_eviction_counter(self):
        _calls, builder = self._builder_calls()
        cache = TransitionCache(builder, maxsize=3)
        for dt in (1.0, 2.0, 3.0, 4.0):
            cache(dt)
        assert len(cache) == 3
        assert cache.evictions == 1
        cache(1.0)  # evicted: rebuilt, evicting the next-oldest (2.0)
        assert cache.misses == 5
        cache(3.0)  # still resident
        assert cache.hits == 1

    def test_recency_refresh_on_hit(self):
        _calls, builder = self._builder_calls()
        cache = TransitionCache(builder, maxsize=2)
        cache(1.0)
        cache(2.0)
        cache(1.0)  # refresh 1.0's recency
        cache(3.0)  # evicts 2.0, not 1.0
        assert cache.misses == 3
        cache(1.0)
        assert cache.hits == 2

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ConfigurationError, match="maxsize"):
            TransitionCache(continuous_double_integrator, maxsize=0)


class TestEstimatorWindows:
    """The estimator, window by window, against from-scratch solves."""

    @staticmethod
    def _stream(steps, hole_every=None):
        v_f = 20.0
        k = 0
        fed = 0
        while fed < steps:
            k += 1
            if hole_every and k % hole_every == 0:
                continue  # challenge instant: no trusted sample
            t = float(k)
            gap = 80.0 - 0.8 * t + 0.05 * np.sin(1.3 * k)
            rel_v = -0.8 + 0.02 * np.cos(2.1 * k)
            yield (
                RadarMeasurement(
                    time=t, distance=gap, relative_velocity=rel_v
                ),
                v_f + 0.01 * np.sin(0.7 * k),
            )
            fed += 1

    @classmethod
    def _feed(cls, estimator, steps, hole_every=None):
        for measurement, speed in cls._stream(steps, hole_every):
            estimator.observe(measurement, speed)
        return estimator

    @staticmethod
    def _window(estimator):
        """``(ys, us, dts)`` of the estimator's current window."""
        window = np.asarray(estimator._samples)
        times, speeds = window[:, 0], window[:, 3]
        dts = times[1:] - times[:-1]
        us = np.zeros((len(dts), 1))
        np.divide(
            speeds[1:] - speeds[:-1], dts, out=us[:, 0], where=dts > 1e-9
        )
        return window[:, 1:3], us, dts

    @pytest.mark.parametrize("hole_every", [None, 6], ids=["uniform", "holes"])
    def test_every_window_matches_from_scratch(self, hole_every):
        estimator = SecureReconstructionEstimator()
        transition = TransitionCache(_transition_builder)
        solved = 0
        for measurement, speed in self._stream(40, hole_every):
            estimator.observe(measurement, speed)
            if len(estimator._samples) < 2:
                continue
            ys, us, dts = self._window(estimator)
            full, sparse = (
                SecureStateReconstruct(
                    SSProblem(
                        estimator.A, estimator.B, estimator.C, ys,
                        us=us, s=s, dts=dts,
                    ),
                    residual_threshold=estimator.residual_threshold,
                    rank_tolerance=estimator.rank_tolerance,
                    transition=transition,
                ).solve()
                for s in (0, estimator.sparsity)
            )
            assert results_equal(estimator.last_result, sparse), solved
            best = full.best or sparse.best
            assert best is not None  # no fallback on this stream
            assert estimator._state[0] == measurement.time
            assert np.array_equal(estimator._state[1], best.x_end), solved
            sigma = max(best.residual, estimator.noise_floor)
            assert np.array_equal(
                estimator._cov, best.x_end_covariance * sigma * sigma
            )
            solved += 1
        assert solved == estimator.windows_solved == 39
        assert estimator.search_stats()["geometry_hits"] > 0

    def test_lazy_last_result_equals_solve_many(self):
        estimator = self._feed(
            SecureReconstructionEstimator(), 20, hole_every=5
        )
        lazy = estimator.last_result
        assert lazy._built is None  # nothing has read the candidates yet
        ys, us, dts = self._window(estimator)
        solver = IncrementalWindowSolver(
            estimator.A,
            estimator.B,
            estimator.C,
            residual_threshold=estimator.residual_threshold,
            transition=TransitionCache(_transition_builder),
        )
        expected = solver.solve_many(ys, us, dts, (0, 1))[1]
        assert results_equal(lazy, expected)
        assert lazy._built is not None
        # consistent holds the very candidate objects, in residual order.
        assert all(
            any(c is d for d in lazy.candidates) for c in lazy.consistent
        )
        assert lazy.best is lazy.consistent[0]

    def test_transition_cache_bounded_under_jittered_sampling(self):
        # Per-step float jitter must not grow the dt-memo without bound.
        estimator = SecureReconstructionEstimator(transition_cache_size=8)
        v_f = 20.0
        t = 0.0
        for k in range(50):
            t += 1.0 + 1e-13 * k  # below quantization: one logical dt
            estimator.observe(
                RadarMeasurement(
                    time=t, distance=60.0 - 0.5 * t, relative_velocity=-0.5
                ),
                v_f,
            )
        assert len(estimator._transition_cache) <= 8
        assert estimator._transition_cache.evictions == 0
        assert estimator._transition_cache.hits > 0

    def test_search_stats_keys(self):
        estimator = self._feed(
            SecureReconstructionEstimator(), 12, hole_every=5
        )
        stats = estimator.search_stats()
        assert stats["windows_solved"] == 11
        # Each window solves s=0 (1 subset) and s=1 (2 subsets).
        assert stats["subsets_searched"] == 33
        assert stats["subsets_searched"] >= stats["subsets_pruned"] >= 0
        for key in (
            "geometry_hits",
            "geometry_extensions",
            "geometry_misses",
            "transition_hits",
            "transition_misses",
            "transition_evictions",
        ):
            assert stats[key] >= 0


def _clear_geometry_memo():
    with reconstruction._GEOMETRY_MEMO_LOCK:
        reconstruction._GEOMETRY_MEMO.clear()


class TestGeometryMemo:
    """The process-wide, content-addressed geometry memo."""

    def test_cold_and_warm_memo_give_equal_runs(self):
        scenario = repro.fig2_scenario("dos")
        _clear_geometry_memo()
        cold = result_to_dict(
            repro.run(scenario, backend="scalar", defense="combined")
        )
        assert reconstruction._GEOMETRY_MEMO  # the cold run filled it
        warm = result_to_dict(
            repro.run(scenario, backend="scalar", defense="combined")
        )
        assert cold["defense_stats"] == warm["defense_stats"]
        assert cold["defense_stats"]["geometry_misses"] > 0
        assert json.dumps(cold, sort_keys=True) == json.dumps(
            warm, sort_keys=True
        )

    def test_memo_stays_within_its_bound(self):
        ys, us, C, A, B = measurement_stream(2, 6)
        solver = IncrementalWindowSolver(
            A,
            B,
            C,
            residual_threshold=0.5,
            transition=continuous_double_integrator,
            max_geometries=4,
        )
        bound = reconstruction._GEOMETRY_MEMO_SIZE
        for k in range(bound + 10):
            # Jitter above the dt quantization: every window is a new
            # geometry with its own interval matrices.
            solver.solve(ys, us, np.ones(5) + 1e-6 * (k + 1), 1)
            assert len(reconstruction._GEOMETRY_MEMO) <= bound
        assert len(reconstruction._GEOMETRY_MEMO) == bound
        assert solver.geometry_misses == bound + 10
        assert solver.cached_geometries == 4

    def test_memo_entry_equals_fresh_build(self):
        ys, us, C, A, B = measurement_stream(3, 8)
        dts = np.array([1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 1.0])
        solver = IncrementalWindowSolver(
            A,
            B,
            C,
            residual_threshold=0.5,
            transition=continuous_double_integrator,
        )
        solver.solve(ys, us, dts, 1)
        entry = solver._geometries[_geometry_key(8, dts)]
        fresh = _build_geometry(
            C, 1, [continuous_double_integrator(float(dt)) for dt in dts]
        )
        for name in ("powers", "full_stack", "input_map"):
            assert np.array_equal(getattr(entry, name), getattr(fresh, name))
        kernel = entry.kernels[1]
        fresh_kernel = _SubsetKernel(
            fresh.full_stack, fresh.powers[-1], 3, 1, 8, 2, 1e-10
        )
        for name in ("stacked", "solve_maps"):
            assert np.array_equal(
                getattr(kernel, name), getattr(fresh_kernel, name)
            )
        assert kernel.ranks == fresh_kernel.ranks
        for a, b in zip(kernel.covariances, fresh_kernel.covariances):
            assert np.array_equal(a, b)

    def test_threads_solving_the_same_windows_agree(self):
        ys, us, C, A, B = measurement_stream(4, 30)
        dts = np.ones(29)
        dts[::4] = 2.0  # holes: several geometries per stream
        barrier = threading.Barrier(4)

        def solve_stream(_):
            solver = IncrementalWindowSolver(
                A,
                B,
                C,
                residual_threshold=0.5,
                transition=continuous_double_integrator,
            )
            barrier.wait(timeout=30)
            return [
                solver.solve_many(
                    ys[k : k + 6], us[k : k + 5], dts[k : k + 5], (1, 2)
                )
                for k in range(24)
            ]

        _clear_geometry_memo()  # every thread starts on a cold memo
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the threads finely
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                streams = list(pool.map(solve_stream, range(4), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        # Each distinct window geometry was built once and shared.
        assert len(reconstruction._GEOMETRY_MEMO) == len(
            {dts[k : k + 5].tobytes() for k in range(24)}
        )
        for k in range(24):
            scratch = SecureStateReconstruct(
                SSProblem(
                    A, B, C, ys[k : k + 6], us=us[k : k + 5], s=2,
                    dts=dts[k : k + 5],
                ),
                residual_threshold=0.5,
                transition=continuous_double_integrator,
            ).solve()
            for stream in streams:
                assert results_equal(stream[k][2], scratch), k
                assert results_equal(stream[k][1], streams[0][k][1]), k
