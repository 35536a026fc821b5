"""The experiment entry point (repro.run)."""

import pytest

import repro
from repro import fig2_scenario
from repro.exceptions import ConfigurationError
from repro.facade import run
from repro.simulation import (
    CarFollowingSimulation,
    FigureData,
    MonteCarloSummary,
    PlatoonResult,
    PlatoonScenario,
    PlatoonSimulation,
    SimulationResult,
    scenario_to_dict,
    save_scenario,
)
from repro.simulation.io import result_to_dict
from repro.vehicle import ConstantAccelerationProfile

FAST = fig2_scenario("dos", horizon=20.0)


def _platoon_scenario():
    return PlatoonScenario(
        leader_profile=ConstantAccelerationProfile(-0.05),
        n_followers=2,
        horizon=20.0,
    )


class TestRunModes:
    def test_default_mode_is_single(self):
        result = run(FAST)
        assert isinstance(result, SimulationResult)
        reference = CarFollowingSimulation(FAST).run()
        assert result_to_dict(result) == result_to_dict(reference)

    def test_single_toggles(self):
        undefended = run(FAST, attack_enabled=False, defended=False)
        assert isinstance(undefended, SimulationResult)
        assert not undefended.detection_times

    def test_figure_mode(self):
        scenario = fig2_scenario("dos")
        data = run(scenario, mode="figure")
        assert isinstance(data, FigureData)
        assert data.detection_time() == 182.0
        for run_, attacked, defended in (
            (data.baseline, False, False),
            (data.attacked, True, False),
            (data.defended, True, True),
        ):
            reference = CarFollowingSimulation(
                scenario, attack_enabled=attacked, defended=defended
            ).run()
            assert run_.traces == reference.traces

    def test_monte_carlo_mode_with_explicit_seeds(self):
        summary = run(
            fig2_scenario("dos"), mode="monte_carlo", seeds=range(3), workers=2
        )
        assert isinstance(summary, MonteCarloSummary)
        assert [o.seed for o in summary.outcomes] == [0, 1, 2]
        reference = repro.simulation.monte_carlo.run_monte_carlo(
            fig2_scenario("dos"), range(3)
        )
        assert summary.outcomes == reference.outcomes

    def test_monte_carlo_mode_derives_seed_count(self):
        summary = run(FAST, mode="monte_carlo", seeds=4)
        assert summary.n_runs == 4
        seeds = [o.seed for o in summary.outcomes]
        assert len(set(seeds)) == 4
        assert seeds == list(repro.derive_seeds(FAST.sensor_seed, 4))

    def test_monte_carlo_requires_seeds(self):
        with pytest.raises(ConfigurationError, match="seeds"):
            run(FAST, mode="monte_carlo")

    @pytest.mark.parametrize("mode", ["single", "figure", "sweep"])
    def test_seeds_rejected_outside_monte_carlo(self, mode):
        # A seed list outside mode="monte_carlo" used to be ignored
        # silently, returning a single run.
        with pytest.raises(ConfigurationError, match="seeds= argument"):
            run(FAST, mode=mode, seeds=range(8))

    def test_seeds_rejected_for_platoon(self):
        with pytest.raises(ConfigurationError, match="seeds= argument"):
            run(_platoon_scenario(), seeds=4)

    def test_platoon_mode_autoselected(self):
        result = run(_platoon_scenario())
        assert isinstance(result, PlatoonResult)
        assert result.n_followers == 2
        reference = PlatoonSimulation(_platoon_scenario()).run()
        assert result.traces == reference.traces

    def test_platoon_scenario_rejects_other_modes(self):
        with pytest.raises(ConfigurationError, match="does not fit"):
            run(_platoon_scenario(), mode="figure")

    def test_pair_scenario_rejects_platoon_mode(self):
        with pytest.raises(ConfigurationError, match="does not fit"):
            run(FAST, mode="platoon")

    def test_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            run(FAST, mode="grid")


class TestSpecInputs:
    def test_dict_spec(self):
        result = run(scenario_to_dict(FAST))
        assert result.min_gap() == run(FAST).min_gap()

    def test_path_spec(self, tmp_path):
        path = save_scenario(FAST, tmp_path / "spec.json")
        result = run(str(path))
        assert result.min_gap() == run(FAST).min_gap()

    def test_rejects_other_types(self):
        with pytest.raises(ConfigurationError, match="Scenario"):
            run(42)


class TestSingleEntryPoint:
    def test_run_is_the_only_runner_exported(self):
        assert repro.run is run
        assert repro.facade.__all__ == ["run"]
        # run_many is the batch layer and run_fingerprint the store key,
        # not experiment runners.
        runners = {name for name in dir(repro) if name.startswith("run_")}
        assert runners == {"run_many", "run_fingerprint"}
