"""Content-addressed run store (repro.store) and cache-aware execution."""

import io
import json
import struct
import zlib

import numpy as np
import pytest

import repro
from repro import fig2_scenario
from repro.cli import main
from repro import telemetry
from repro.exceptions import ConfigurationError
from repro.simulation import (
    PlatoonScenario,
    RunSpec,
    execute_batch,
    run_monte_carlo,
)
from repro.store import (
    CACHE_MODES,
    CacheBinding,
    RunStore,
    STORE_SCHEMA_VERSION,
    canonical_json,
    default_store_path,
    fingerprint_payload,
    resolve_cache,
    run_fingerprint,
)
from repro.simulation.io import result_to_dict
from repro.simulation.results import SimulationResult
from repro.store.runstore import _decode_payload, _encode_payload
from repro.types import DetectionEvent, TimeSeries
from repro.vehicle import ConstantAccelerationProfile

#: Short horizon keeps the attack window empty — fast, clean runs.
FAST = fig2_scenario("dos", horizon=20.0)


def _spec(**overrides):
    return RunSpec(FAST.with_overrides(**overrides)) if overrides else RunSpec(FAST)


class TestCanonicalJson:
    def test_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_unwraps_numpy_scalars(self):
        text = canonical_json({"x": np.float64(1.5), "n": np.int64(3)})
        assert text == '{"n":3,"x":1.5}'

    def test_rejects_unserializable(self):
        with pytest.raises(TypeError):
            canonical_json({"x": object()})

    def test_deterministic(self):
        payload = fingerprint_payload(_spec())
        assert canonical_json(payload) == canonical_json(payload)


class TestFingerprint:
    def test_is_hex_sha256(self):
        digest = run_fingerprint(_spec())
        assert isinstance(digest, str)
        assert len(digest) == 64
        int(digest, 16)  # all hex

    def test_deterministic_and_tag_excluded(self):
        a = RunSpec(FAST, tag="first")
        b = RunSpec(FAST, tag="second")
        assert run_fingerprint(a) == run_fingerprint(b)

    @pytest.mark.parametrize(
        "other",
        [
            RunSpec(FAST, attack_enabled=False),
            RunSpec(FAST, defended=False),
            RunSpec(FAST.with_overrides(sensor_seed=999)),
            RunSpec(FAST.with_overrides(horizon=21.0)),
            RunSpec(
                FAST.with_overrides(
                    leader_profile=ConstantAccelerationProfile(-0.2)
                )
            ),
        ],
    )
    def test_sensitive_to_simulation_inputs(self, other):
        assert run_fingerprint(RunSpec(FAST)) != run_fingerprint(other)

    def test_payload_carries_schema_salt(self):
        payload = fingerprint_payload(_spec())
        assert payload["schema"] == STORE_SCHEMA_VERSION

    def test_platoon_is_uncacheable(self):
        platoon = PlatoonScenario(
            leader_profile=FAST.leader_profile, n_followers=2, horizon=20.0
        )
        spec = RunSpec(platoon)
        assert fingerprint_payload(spec) is None
        assert run_fingerprint(spec) is None


class TestRunStore:
    def test_put_get_bit_identical(self, tmp_path):
        result = repro.run(FAST, defended=True)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("a" * 64, result, sensor_seed=FAST.sensor_seed)
            loaded = store.get("a" * 64)
        assert loaded.name == result.name
        assert loaded.attack_name == result.attack_name
        assert loaded.defended == result.defended
        assert loaded.collision_time == result.collision_time
        assert loaded.detection_events == result.detection_events
        assert set(loaded.traces) == set(result.traces)
        for name in result.traces:
            assert loaded.traces[name].times == result.traces[name].times
            assert loaded.traces[name].values == result.traces[name].values

    def test_miss_returns_none(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("a" * 64, repro.run(FAST))
            assert store.get("b" * 64) is None

    def test_reads_do_not_create_file(self, tmp_path):
        path = tmp_path / "nope" / "s.sqlite"
        with RunStore(path) as store:
            assert store.get("a" * 64) is None
            assert "a" * 64 not in store
            assert len(store) == 0
            assert store.fingerprints() == []
            assert store.stats().entries == 0
            assert store.evict() == 0
        assert not path.exists()

    def test_contains_len_fingerprints(self, tmp_path):
        result = repro.run(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("b" * 64, result)
            store.put("a" * 64, result)
            assert "a" * 64 in store
            assert "c" * 64 not in store
            assert len(store) == 2
            assert store.fingerprints() == ["a" * 64, "b" * 64]

    def test_stats_and_scenario_counts(self, tmp_path):
        result = repro.run(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("a" * 64, result)
            store.put("b" * 64, result)
            stats = store.stats()
            assert stats.entries == 2
            assert stats.payload_bytes > 0
            assert stats.db_bytes > 0
            assert dict(stats.by_scenario) == {result.name: 2}
            assert store.scenario_counts() == {result.name: 2}
            rows = stats.as_rows()
            assert rows[0]["scope"] == "total"
            assert rows[0]["runs"] == 2

    def test_evict_and_clear(self, tmp_path):
        result = repro.run(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            for key in ("a" * 64, "b" * 64, "c" * 64):
                store.put(key, result)
            assert store.evict(["a" * 64]) == 1
            assert store.evict([]) == 0
            assert len(store) == 2
            assert store.clear() == 2
            assert len(store) == 0

    def test_double_put_writes_once_and_preserves_original(self, tmp_path):
        """Regression: ``put`` used INSERT OR REPLACE, so a concurrent
        second writer deleted-and-rewrote the row, churning WAL pages and
        resetting ``created_at``.  Rows are immutable now."""
        result = repro.run(FAST, defended=True)
        other = repro.run(FAST, defended=False)
        with RunStore(tmp_path / "s.sqlite") as store:
            assert store.put("a" * 64, result) is True
            created = store._connect().execute(
                "SELECT created_at FROM runs WHERE fingerprint = ?",
                ("a" * 64,),
            ).fetchone()[0]
            # Second put is a no-op, even with a different payload.
            assert store.put("a" * 64, other) is False
            assert len(store) == 1
            row = store._connect().execute(
                "SELECT created_at FROM runs WHERE fingerprint = ?",
                ("a" * 64,),
            ).fetchone()
            assert row[0] == created

            # Replay still serves the first write, bit-identical.
            loaded = store.get("a" * 64)
        assert loaded.defended == result.defended
        for name in result.traces:
            assert loaded.traces[name].values == result.traces[name].values

    def test_export_inventory(self, tmp_path):
        result = repro.run(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put(
                "a" * 64,
                result,
                spec_dict={"name": FAST.name},
                sensor_seed=7,
                horizon=20.0,
            )
            out = store.export(tmp_path / "inventory.json")
        data = json.loads(out.read_text())
        (entry,) = data["entries"]
        assert entry["fingerprint"] == "a" * 64
        assert entry["schema_version"] == STORE_SCHEMA_VERSION
        assert entry["sensor_seed"] == 7
        assert entry["spec"] == {"name": FAST.name}
        assert "min_gap_m" in entry["summary"] or entry["summary"]
        assert "payload" not in entry

    def test_default_store_path_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cachedir"))
        assert default_store_path() == tmp_path / "cachedir" / "runstore.sqlite"
        monkeypatch.delenv("REPRO_CACHE_DIR")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_store_path() == tmp_path / "xdg" / "repro" / "runstore.sqlite"


def _bits(result):
    """Everything a result holds, with every float as its float64 bytes
    (so ``-0.0`` vs ``0.0`` and NaN payloads count as differences)."""
    meta = result_to_dict(result)
    del meta["traces"]
    traces = {
        name: (
            np.asarray(series.times, dtype="<f8").tobytes(),
            np.asarray(series.values, dtype="<f8").tobytes(),
            [type(t) for t in series.times] + [type(v) for v in series.values],
        )
        for name, series in result.traces.items()
    }
    return json.dumps(meta, sort_keys=True), list(result.traces), traces


def _encode_v1(result):
    """The ``zlib-f64-v1`` encoder, frozen as it was last written: stores
    and merged shards still hold rows in this layout."""
    meta = result_to_dict(result)
    traces = meta.pop("traces")
    layout = []
    arrays = []
    for name, data in traces.items():
        layout.append({"name": name, "n": len(data["times"])})
        arrays.append(np.asarray(data["times"], dtype="<f8").tobytes())
        arrays.append(np.asarray(data["values"], dtype="<f8").tobytes())
    header = json.dumps(
        {"meta": meta, "layout": layout}, separators=(",", ":")
    ).encode("utf-8")
    blob = b"".join([struct.pack("<I", len(header)), header, *arrays])
    return zlib.compress(blob, 6)


def _v2_header(blob):
    raw = zlib.decompress(blob)
    (header_len,) = struct.unpack_from("<I", raw, 0)
    return json.loads(raw[4 : 4 + header_len].decode("utf-8"))


def _hand_built():
    """Traces that stress the shared time axis: one on its own axis, one
    whose times differ from the axis only in the sign of a zero, one
    empty, and values holding -0.0 and NaN."""
    axis = [0.0, 1.0, 2.0]
    return SimulationResult(
        name="hand",
        traces={
            "shared": TimeSeries("shared", list(axis), [-0.0, float("nan"), 1.5]),
            "own": TimeSeries("own", [0.0, 0.5], [1.0, -2.0]),
            "signed_zero": TimeSeries("signed_zero", [-0.0, 1.0, 2.0], [0.0] * 3),
            "empty": TimeSeries("empty"),
            "shared_too": TimeSeries("shared_too", list(axis), [3.0, 4.0, 5.0]),
        },
        detection_events=[DetectionEvent(1.0, True, 0.25)],
        collision_time=2.0,
        attack_name="dos",
        defended=True,
        defense_stats={"subsets": 3},
    )


class TestPayloadCodec:
    def test_v2_round_trip_engine_result(self):
        result = repro.run(fig2_scenario("dos"), defense="rls")
        decoded = _decode_payload(_encode_payload(result), "zlib-f64-v2")
        assert _bits(decoded) == _bits(result)

    def test_v2_round_trip_hand_built(self):
        result = _hand_built()
        blob = _encode_payload(result)
        assert _bits(_decode_payload(blob, "zlib-f64-v2")) == _bits(result)
        header = _v2_header(blob)
        assert header["n"] == 3
        own = {entry["name"]: entry["own_times"] for entry in header["layout"]}
        assert own == {
            "shared": False,
            "own": True,
            "signed_zero": True,
            "empty": True,
            "shared_too": False,
        }

    def test_v2_decoded_traces_own_their_lists(self):
        decoded = _decode_payload(_encode_payload(_hand_built()), "zlib-f64-v2")
        assert decoded.traces["shared"].times is not decoded.traces[
            "shared_too"
        ].times

    @pytest.mark.parametrize("make", [_hand_built, lambda: repro.run(FAST)])
    def test_v1_blob_still_decodes(self, make):
        result = make()
        decoded = _decode_payload(_encode_v1(result), "zlib-f64-v1")
        assert _bits(decoded) == _bits(result)

    def test_store_mixes_codecs(self, tmp_path):
        result = repro.run(FAST)
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("a" * 64, result)
            (row,) = list(store.iter_rows())
            blob = _encode_v1(result)
            store.put_row(
                {
                    **row,
                    "fingerprint": "b" * 64,
                    "payload": blob,
                    "payload_codec": "zlib-f64-v1",
                    "payload_bytes": len(blob),
                }
            )
            codecs = [r["payload_codec"] for r in store.iter_rows()]
            assert codecs == ["zlib-f64-v2", "zlib-f64-v1"]
            assert _bits(store.get("a" * 64)) == _bits(result)
            assert _bits(store.get("b" * 64)) == _bits(result)

    def test_v2_smaller_than_v1_for_defended_fig2a(self):
        result = repro.run(fig2_scenario("dos"), defense="rls")
        assert len(_encode_payload(result)) < len(_encode_v1(result))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["layout"].pop(),
            lambda header: header["layout"][0].update(n=2),
        ],
        ids=["layout_short_of_block", "shared_axis_length"],
    )
    def test_header_block_mismatch_rejected(self, edit):
        raw = zlib.decompress(_encode_payload(_hand_built()))
        (header_len,) = struct.unpack_from("<I", raw, 0)
        header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
        edit(header)
        text = json.dumps(header).encode("utf-8")
        blob = struct.pack("<I", len(text)) + text + raw[4 + header_len :]
        with pytest.raises(ValueError, match="axis|layout"):
            _decode_payload(zlib.compress(blob), "zlib-f64-v2")

    def test_unknown_codec_rejected(self):
        with pytest.raises(ValueError, match="codec"):
            _decode_payload(_encode_payload(_hand_built()), "zlib-f64-v9")

    def test_mismatched_trace_lengths_rejected(self):
        result = _hand_built()
        result.traces["own"].values.append(1.0)
        with pytest.raises(ValueError, match="own"):
            _encode_payload(result)


def _truncate(payload):
    return payload[: len(payload) // 2]


def _flip_byte(payload):
    middle = len(payload) // 2
    return payload[:middle] + bytes([payload[middle] ^ 0xFF]) + payload[middle + 1 :]


class TestCorruptRows:
    @pytest.mark.parametrize("damage", [_truncate, _flip_byte])
    def test_corrupt_row_is_recomputed_and_rewritten(self, tmp_path, damage):
        off = repro.run(FAST, cache="off")
        with RunStore(tmp_path / "s.sqlite") as store:
            repro.run(FAST, cache=store)
            (fingerprint,) = store.fingerprints()
            conn = store._connect()
            (payload,) = conn.execute("SELECT payload FROM runs").fetchone()
            with conn:
                conn.execute("UPDATE runs SET payload = ?", (damage(payload),))

            with telemetry.session() as tele:
                warm = repro.run(FAST, cache=store)
            assert tele.counters["store.corrupt_rows"] == 1
            assert tele.counters["store.writes"] == 1
            assert _bits(warm) == _bits(off)
            assert store.fingerprints() == [fingerprint]
            assert _bits(store.get(fingerprint)) == _bits(off)

    def test_get_drops_the_corrupt_row(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            store.put("a" * 64, repro.run(FAST))
            conn = store._connect()
            with conn:
                conn.execute("UPDATE runs SET payload = ?", (b"not zlib",))
            assert store.get("a" * 64) is None
            assert "a" * 64 not in store


class TestCacheBinding:
    def test_resolve_off(self):
        assert resolve_cache(None) is None
        assert resolve_cache("off") is None

    def test_resolve_store_instance(self, tmp_path):
        store = RunStore(tmp_path / "s.sqlite")
        binding = resolve_cache(store)
        assert binding.store is store
        assert binding.mode == "readwrite"
        assert not binding.owns_store

    def test_resolve_mode_strings(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        for mode in ("readonly", "readwrite"):
            binding = resolve_cache(mode)
            assert binding.mode == mode
            assert binding.owns_store
            binding.store.close()

    def test_resolve_passthrough_binding(self, tmp_path):
        binding = CacheBinding(RunStore(tmp_path / "s.sqlite"), "readonly")
        assert resolve_cache(binding) is binding
        assert not binding.writes

    @pytest.mark.parametrize("bad", ["readwritee", "on", 1, object()])
    def test_rejects_unknown(self, bad):
        with pytest.raises(ConfigurationError):
            resolve_cache(bad)

    def test_binding_rejects_bad_mode(self, tmp_path):
        with pytest.raises(ConfigurationError):
            CacheBinding(RunStore(tmp_path / "s.sqlite"), "off")

    def test_modes_constant(self):
        assert CACHE_MODES == ("off", "readonly", "readwrite")


class TestCacheAwareExecution:
    def test_cold_then_warm_batch(self, tmp_path):
        specs = [RunSpec(FAST, defended=True), RunSpec(FAST, defended=False)]
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = execute_batch(specs, cache=store)
            assert cold.cache_hits == 0
            assert all(not r.cached for r in cold.records)
            assert len(store) == 2

            warm = execute_batch(specs, cache=store)
            assert warm.cache_hits == 2
            assert all(r.cached for r in warm.records)

        plain = execute_batch(specs)
        for a, b in zip(warm.records, plain.records):
            for name in a.payload.traces:
                assert a.payload.traces[name].values == b.payload.traces[name].values
            assert a.payload.detection_events == b.payload.detection_events

    def test_readonly_serves_but_never_writes(self, tmp_path):
        specs = [RunSpec(FAST)]
        with RunStore(tmp_path / "s.sqlite") as store:
            readonly = CacheBinding(store, "readonly")
            miss = execute_batch(specs, cache=readonly)
            assert miss.cache_hits == 0
            assert len(store) == 0  # miss was not written back

            execute_batch(specs, cache=store)  # populate
            hit = execute_batch(specs, cache=readonly)
            assert hit.cache_hits == 1

    def test_postprocess_applied_to_cached_runs(self, tmp_path):
        specs = [RunSpec(FAST, tag="t")]
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = execute_batch(specs, cache=store, postprocess=_tag_and_gap)
            warm = execute_batch(specs, cache=store, postprocess=_tag_and_gap)
        assert warm.cache_hits == 1
        assert cold.payloads() == warm.payloads()
        assert warm.payloads()[0][0] == "t"

    def test_monte_carlo_warm_equals_cold_equals_off(self, tmp_path):
        seeds = [0, 1, 2]
        off = run_monte_carlo(FAST, seeds)
        with RunStore(tmp_path / "s.sqlite") as store:
            cold = run_monte_carlo(FAST, seeds, cache=store)
            warm = run_monte_carlo(FAST, seeds, cache=store)
            assert len(store) == len(seeds)
        assert cold.outcomes == off.outcomes
        assert warm.outcomes == off.outcomes

    def test_facade_run_single_cached(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            off = repro.run(FAST, mode="single")
            cold = repro.run(FAST, mode="single", cache=store)
            warm = repro.run(FAST, mode="single", cache=store)
            assert len(store) == 1
        for result in (cold, warm):
            assert result.detection_events == off.detection_events
            for name in off.traces:
                assert result.traces[name].values == off.traces[name].values

    def test_facade_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            repro.run(FAST, mode="single", cache="sometimes")

    def test_figure_triple_cached(self, tmp_path):
        with RunStore(tmp_path / "s.sqlite") as store:
            off = repro.run(FAST, mode="figure")
            repro.run(FAST, cache=store, mode="figure")
            warm = repro.run(FAST, cache=store, mode="figure")
            assert len(store) == 3
        assert warm.defended.detection_events == off.defended.detection_events
        assert (
            warm.attacked.traces["measured_distance"].values
            == off.attacked.traces["measured_distance"].values
        )


def _tag_and_gap(spec, result):
    """Module-level reducer (must be picklable for workers)."""
    return (spec.tag, round(result.min_gap(), 6))


class TestCacheCLI:
    def _populated(self, tmp_path):
        store_path = tmp_path / "s.sqlite"
        with RunStore(store_path) as store:
            store.put("a" * 64, repro.run(FAST))
        return store_path

    def test_path(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        out = io.StringIO()
        assert main(["cache", "path"], out=out) == 0
        assert str(tmp_path / "runstore.sqlite") in out.getvalue()

    def test_stats(self, tmp_path):
        store_path = self._populated(tmp_path)
        out = io.StringIO()
        assert main(["cache", "stats", "--store", str(store_path)], out=out) == 0
        text = out.getvalue()
        assert "run store at" in text
        assert "total" in text

    def test_clear(self, tmp_path):
        store_path = self._populated(tmp_path)
        out = io.StringIO()
        assert main(["cache", "clear", "--store", str(store_path)], out=out) == 0
        assert "evicted 1 cached runs" in out.getvalue()
        with RunStore(store_path) as store:
            assert len(store) == 0

    def test_export(self, tmp_path):
        store_path = self._populated(tmp_path)
        dest = tmp_path / "inv.json"
        out = io.StringIO()
        code = main(
            ["cache", "export", "--store", str(store_path), str(dest)], out=out
        )
        assert code == 0
        assert json.loads(dest.read_text())["entries"][0]["fingerprint"] == "a" * 64

    def test_run_with_cache_flag(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        spec_path = tmp_path / "spec.json"
        from repro.simulation import save_scenario

        save_scenario(FAST, spec_path)
        out = io.StringIO()
        assert main(["run-custom", str(spec_path), "--cache"], out=out) == 0
        with RunStore() as store:
            assert len(store) == 3  # baseline / attacked / defended

    def test_cache_flags_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            main(["run", "fig2a", "--cache", "--no-cache"], out=io.StringIO())
