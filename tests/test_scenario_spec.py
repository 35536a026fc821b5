"""Declarative scenario specs (repro.simulation.spec)."""

import io
import json
import math

import pytest

from repro import fig2_scenario, fig3_scenario, run
from repro.attacks import (
    AttackWindow,
    DelayInjectionAttack,
    DoSJammingAttack,
    PhantomTargetAttack,
)
from repro.cli import main
from repro.exceptions import ConfigurationError
from repro.simulation import (
    SPEC_VERSION,
    RunSpec,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.store.fingerprint import fingerprint_payload, run_fingerprint
from repro.vehicle import (
    ConstantAccelerationProfile,
    PiecewiseAccelerationProfile,
    StopAndGoProfile,
)


class TestRoundTrip:
    @pytest.mark.parametrize("factory,attack", [
        (fig2_scenario, "dos"),
        (fig2_scenario, "delay"),
        (fig3_scenario, "dos"),
    ])
    def test_paper_scenarios_round_trip(self, factory, attack):
        original = factory(attack)
        rebuilt = scenario_from_dict(scenario_to_dict(original))
        assert rebuilt.name == original.name
        assert rebuilt.challenge_times == original.challenge_times
        assert rebuilt.attack.window.start == original.attack.window.start
        assert rebuilt.defense == original.defense
        assert rebuilt.acc_params == original.acc_params
        assert rebuilt.radar_params == original.radar_params

    def test_round_trip_preserves_behaviour(self):
        original = fig2_scenario("delay")
        rebuilt = scenario_from_dict(scenario_to_dict(original))
        a = run(original, defended=True)
        b = run(rebuilt, defended=True)
        assert a.detection_times == b.detection_times
        assert a.min_gap() == pytest.approx(b.min_gap())

    def test_phantom_and_stop_and_go_round_trip(self):
        scenario = fig2_scenario("dos").with_overrides(
            name="custom",
            leader_profile=StopAndGoProfile(deceleration=0.8),
            attack=PhantomTargetAttack(
                AttackWindow(100.0, 200.0), phantom_distance=12.0
            ),
            follower_policy="idm",
            dropout_rate=0.05,
            adaptive_challenge_period=2.0,
        )
        rebuilt = scenario_from_dict(scenario_to_dict(scenario))
        assert rebuilt.leader_profile.deceleration == 0.8
        assert rebuilt.attack.phantom_distance == 12.0
        assert rebuilt.follower_policy == "idm"
        assert rebuilt.dropout_rate == 0.05
        assert rebuilt.adaptive_challenge_period == 2.0

    def test_json_file_round_trip(self, tmp_path):
        path = save_scenario(fig2_scenario("dos"), tmp_path / "spec.json")
        loaded = load_scenario(path)
        assert loaded.attack.window.start == 182.0
        # The file itself is valid, human-editable JSON.
        spec = json.loads(path.read_text())
        assert spec["leader_profile"]["kind"] == "constant"


#: One instance of every leader-profile kind the spec schema knows.
PROFILE_CASES = {
    "constant": ConstantAccelerationProfile(-0.1082, start_time=5.0),
    "piecewise": PiecewiseAccelerationProfile([(0.0, -0.1), (150.0, 0.012)]),
    "stop_and_go": StopAndGoProfile(
        deceleration=0.9,
        acceleration=0.7,
        brake_time=15.0,
        go_time=30.0,
        start_time=2.0,
    ),
}

#: One instance of every attack kind the spec schema knows.
ATTACK_CASES = {
    "dos": DoSJammingAttack(AttackWindow(182.0, 300.0)),
    "delay": DelayInjectionAttack(
        AttackWindow(180.0, 300.0),
        distance_offset=6.0,
        velocity_offset=1.5,
        ramp_time=10.0,
    ),
    "phantom": PhantomTargetAttack(
        AttackWindow(100.0, 200.0),
        phantom_distance=12.0,
        phantom_velocity=-3.0,
    ),
}


class TestDictLevelRoundTrip:
    """``scenario_to_dict(scenario_from_dict(d)) == d`` for every kind.

    The spec dict is the run store's cache key (:mod:`repro.store`), so
    the round trip must be exact at the dict level — not merely
    behaviour-preserving — or cached runs would miss after a reload.
    """

    @pytest.mark.parametrize("profile_kind", sorted(PROFILE_CASES))
    @pytest.mark.parametrize("attack_kind", sorted(ATTACK_CASES))
    def test_every_profile_and_attack_kind(self, profile_kind, attack_kind):
        scenario = fig2_scenario("dos").with_overrides(
            name=f"{profile_kind}-{attack_kind}",
            leader_profile=PROFILE_CASES[profile_kind],
            attack=ATTACK_CASES[attack_kind],
        )
        spec = scenario_to_dict(scenario)
        assert spec["leader_profile"]["kind"] == profile_kind
        assert spec["attack"]["kind"] == attack_kind
        assert scenario_to_dict(scenario_from_dict(spec)) == spec

    @pytest.mark.parametrize("profile_kind", sorted(PROFILE_CASES))
    def test_no_attack_round_trips(self, profile_kind):
        scenario = fig2_scenario("dos").with_overrides(
            name=f"{profile_kind}-clean",
            leader_profile=PROFILE_CASES[profile_kind],
            attack=None,
        )
        spec = scenario_to_dict(scenario)
        assert "attack" not in spec or spec["attack"] is None
        assert scenario_to_dict(scenario_from_dict(spec)) == spec


class TestSpecValidation:
    def test_minimal_spec_gets_defaults(self):
        scenario = scenario_from_dict(
            {"leader_profile": {"kind": "constant", "acceleration": -0.1}}
        )
        assert scenario.horizon == 300.0
        assert scenario.attack is None
        assert scenario.name == "custom"

    def test_missing_profile_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({})

    def test_unknown_profile_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict({"leader_profile": {"kind": "warp"}})

    def test_unknown_attack_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_from_dict(
                {
                    "leader_profile": {"kind": "constant", "acceleration": 0.0},
                    "attack": {"kind": "emp", "start": 0.0},
                }
            )


class TestNonFiniteRejected:
    """Every number a spec decodes must be finite (except an open attack end)."""

    @pytest.mark.parametrize("field,value", [
        ("initial_distance", math.nan),
        ("distance_noise_std", math.inf),
        ("horizon", math.nan),
        ("sample_period", math.nan),
        ("horizon", -math.inf),
        ("leader_initial_speed", math.inf),
    ])
    def test_top_level_field(self, field, value):
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec[field] = value
        with pytest.raises(ConfigurationError, match=f"'{field}' must be finite"):
            scenario_from_dict(spec)

    @pytest.mark.parametrize("path,value", [
        ("attack.jammer.peak_power", math.nan),
        ("attack.start", math.inf),
        ("attack.end", math.nan),
        ("attack.end", -math.inf),
        ("defense.forgetting", math.nan),
        ("acc_params.headway_time", math.inf),
        ("leader_profile.acceleration", math.nan),
    ])
    def test_nested_field(self, path, value):
        spec = scenario_to_dict(fig2_scenario("dos"))
        *parents, leaf = path.split(".")
        node = spec
        for key in parents:
            node = node[key]
        assert leaf in node
        node[leaf] = value
        with pytest.raises(ConfigurationError, match=f"'{path}' must be finite"):
            scenario_from_dict(spec)

    def test_list_entry_is_named(self):
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec["challenge_times"][2] = math.nan
        with pytest.raises(ConfigurationError, match=r"'challenge_times\[2\]'"):
            scenario_from_dict(spec)

    def test_open_ended_attack_still_decodes(self):
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec["attack"]["end"] = math.inf
        assert scenario_from_dict(spec).attack.window.end == math.inf

    def test_rejected_when_loaded_from_json(self, tmp_path):
        path = tmp_path / "spec.json"
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec["initial_distance"] = math.nan
        path.write_text(json.dumps(spec))
        with pytest.raises(ConfigurationError, match="initial_distance"):
            load_scenario(path)


class TestStepBudget:
    """A decoded spec asks for at most ``spec.MAX_STEPS`` steps."""

    @pytest.mark.parametrize("field,value", [
        ("horizon", 1e12),
        ("sample_period", 1e-9),
    ])
    def test_oversized_spec_rejected(self, field, value):
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec[field] = value
        with pytest.raises(ConfigurationError, match="'horizon'.*MAX_STEPS"):
            scenario_from_dict(spec)

    def test_budget_edge(self):
        from repro.simulation.spec import MAX_STEPS

        spec = scenario_to_dict(fig2_scenario("dos"))
        spec["horizon"] = float(MAX_STEPS)
        assert scenario_from_dict(spec).horizon == MAX_STEPS
        spec["horizon"] = float(MAX_STEPS) + 1.0
        with pytest.raises(ConfigurationError, match="MAX_STEPS"):
            scenario_from_dict(spec)


class TestSpecVersion:
    """The declarative format is versioned (spec.SPEC_VERSION)."""

    def test_serializer_stamps_current_version(self):
        spec = scenario_to_dict(fig2_scenario("dos"))
        # v2 added the defense block; v1 specs stay readable.
        assert spec["spec_version"] == SPEC_VERSION == 2

    def test_current_version_round_trips(self):
        spec = scenario_to_dict(fig2_scenario("dos"))
        assert scenario_to_dict(scenario_from_dict(spec)) == spec

    def test_missing_version_means_version_one(self):
        # Pre-versioning specs carried no marker; they are v1 by fiat.
        spec = scenario_to_dict(fig2_scenario("dos"))
        del spec["spec_version"]
        scenario = scenario_from_dict(spec)
        assert scenario.name == fig2_scenario("dos").name

    @pytest.mark.parametrize("bad", [0, 3, 99, "1", None])
    def test_unknown_version_rejected(self, bad):
        spec = scenario_to_dict(fig2_scenario("dos"))
        spec["spec_version"] = bad
        with pytest.raises(ConfigurationError, match="spec_version"):
            scenario_from_dict(spec)

    def test_version_never_leaks_into_scenario(self):
        scenario = scenario_from_dict(scenario_to_dict(fig2_scenario("dos")))
        assert not hasattr(scenario, "spec_version")

    def test_version_salts_run_fingerprint(self):
        # The store serializes scenarios via scenario_to_dict, so the
        # format revision is part of every cache key.
        spec = RunSpec(fig2_scenario("dos", horizon=20.0))
        payload = fingerprint_payload(spec)
        assert payload["scenario"]["spec_version"] == SPEC_VERSION
        assert run_fingerprint(spec) is not None


class TestCLIRunCustom:
    def test_runs_spec_file(self, tmp_path):
        path = save_scenario(fig2_scenario("dos"), tmp_path / "spec.json")
        out = io.StringIO()
        code = main(["run-custom", str(path)], out=out)
        assert code == 0
        assert "detection at k = 182 s" in out.getvalue()

    def test_bad_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = io.StringIO()
        assert main(["run-custom", str(bad)], out=out) == 2

    def test_reads_spec_from_stdin(self, monkeypatch):
        spec = scenario_to_dict(fig2_scenario("dos"))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(spec)))
        out = io.StringIO()
        assert main(["run-custom", "-"], out=out) == 0
        assert "detection at k = 182 s" in out.getvalue()

    def test_bad_stdin_exits_2(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("{not json"))
        out, err = io.StringIO(), io.StringIO()
        assert main(["run-custom", "-"], out=out, err=err) == 2
        assert out.getvalue() == ""  # diagnostics go to stderr
        assert "<stdin>" in err.getvalue()
