"""Platoon simulation (repro.simulation.platoon)."""

import numpy as np
import pytest

from repro.attacks import AttackWindow, DoSJammingAttack
from repro.exceptions import ConfigurationError
from repro.simulation import DefenseConfig, PlatoonScenario, PlatoonSimulation
from repro.vehicle import ConstantAccelerationProfile


def make_scenario(**overrides):
    defaults = dict(
        leader_profile=ConstantAccelerationProfile(-0.1082),
        n_followers=3,
        attack=DoSJammingAttack(AttackWindow(182.0, 300.0)),
    )
    defaults.update(overrides)
    return PlatoonScenario(**defaults)


@pytest.fixture(scope="module")
def clean_run():
    return PlatoonSimulation(make_scenario(), attack_enabled=False).run()


class TestScenarioValidation:
    def test_rejects_bad_follower_count(self):
        with pytest.raises(ConfigurationError):
            make_scenario(n_followers=0)

    def test_rejects_out_of_range_attacked_index(self):
        with pytest.raises(ConfigurationError):
            make_scenario(attacked_follower=5)

    def test_rejects_out_of_range_defended_index(self):
        with pytest.raises(ConfigurationError):
            make_scenario(defended_followers=(7,))

    def test_rejects_bad_gap(self):
        with pytest.raises(ConfigurationError):
            make_scenario(initial_gap=0.0)

    @pytest.mark.parametrize("strategy", ["safety_filter", "combined"])
    def test_rejects_strategies_needing_the_safety_filter(self, strategy):
        # The platoon loop has no safety filter; running would give
        # the estimator-only traces with no error.
        with pytest.raises(ConfigurationError, match=repr(strategy)):
            make_scenario(
                n_followers=2,
                defended_followers=(0,),
                defense=DefenseConfig(strategy=strategy),
            )

    @pytest.mark.parametrize("strategy", ["rls", "secure_reconstruction"])
    def test_accepts_estimator_strategies(self, strategy):
        scenario = make_scenario(defense=DefenseConfig(strategy=strategy))
        assert scenario.defense.strategy == strategy


class TestCleanPlatoon:
    def test_no_collisions(self, clean_run):
        assert not clean_run.any_collision()

    def test_all_traces_recorded(self, clean_run):
        assert "leader_velocity" in clean_run.traces
        for i in range(3):
            assert len(clean_run.traces[f"gap_{i}"]) == 301
            assert len(clean_run.traces[f"velocity_{i}"]) == 301

    def test_followers_track_their_predecessors(self, clean_run):
        leader_v = clean_run.traces["leader_velocity"].as_arrays()[1]
        previous = leader_v
        for i in range(3):
            follower_v = clean_run.velocity(i)
            # Each vehicle tracks its own predecessor (lag accumulates
            # down the chain, so leader-relative error would grow).  The
            # window stops before the low-speed endgame, where braking
            # to standstill makes tracking spiky.
            deviation = np.abs(follower_v[120:220] - previous[120:220])
            assert np.mean(deviation) < 2.0
            assert np.max(deviation) < 6.0
            previous = follower_v

    def test_gaps_stay_positive(self, clean_run):
        for i in range(3):
            assert clean_run.min_gap(i) > 0.0


class TestAttackedPlatoon:
    @pytest.fixture(scope="class")
    def attacked_run(self):
        return PlatoonSimulation(make_scenario(), attack_enabled=True).run()

    def test_attacked_vehicle_collides(self, attacked_run):
        assert attacked_run.collided(0)
        assert attacked_run.collision_times[0] > 182.0

    def test_disturbance_propagates_downstream(self, attacked_run, clean_run):
        amplification = attacked_run.string_amplification(clean_run)
        # Followers behind the attacked vehicle deviate far more than in
        # the clean run (string disturbance).
        assert all(a > 10.0 for a in amplification[1:])

    def test_attack_on_middle_vehicle(self, clean_run):
        result = PlatoonSimulation(
            make_scenario(attacked_follower=1), attack_enabled=True
        ).run()
        # Vehicle 0 ranges on the honest leader and stays clean.
        assert result.gap_deviation(0, clean_run) < 5.0
        assert result.collided(1) or result.min_gap(1) < clean_run.min_gap(1)


class TestDefendedPlatoon:
    @pytest.fixture(scope="class")
    def defended_run(self):
        return PlatoonSimulation(
            make_scenario(defended_followers=(0,)), attack_enabled=True
        ).run()

    def test_no_collisions(self, defended_run):
        assert not defended_run.any_collision()

    def test_detection_at_first_challenge(self, defended_run):
        detections = [
            e.time for e in defended_run.detection_events if e.attack_detected
        ]
        assert detections[0] == 182.0

    def test_defense_contains_disturbance(self, defended_run, clean_run):
        attacked = PlatoonSimulation(make_scenario(), attack_enabled=True).run()
        defended_amp = defended_run.string_amplification(clean_run)
        attacked_amp = attacked.string_amplification(clean_run)
        assert all(d < a for d, a in zip(defended_amp, attacked_amp))

    def test_downstream_gaps_near_clean(self, defended_run, clean_run):
        for i in (1, 2):
            assert defended_run.min_gap(i) > 0.5 * clean_run.min_gap(i)
