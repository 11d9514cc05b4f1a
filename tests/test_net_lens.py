"""Tests for the net-lens: airtime ledger, event trace, profiler, CLI.

The load-bearing guarantees:

* **Conservation** — per node, the four ledger states (tx / busy /
  backoff / idle) telescope to exactly the simulation duration, and the
  transmit time splits exactly into data / control / ack.
* **Determinism** — with ``wall_clock=False`` the event stream is
  byte-identical between serial and process-pool sweeps.
* **Schema** — every trace record is a versioned ``type="net"`` event
  with a name from the pinned vocabulary; failure causes come from the
  net taxonomy.
* The paper's headline, as an observable: the CoS run's control airtime
  fraction sits strictly below the explicit run's.
"""

import json

import pytest

import repro.obs as obs
from repro.cli import main
from repro.net import NetLens, builtin_scenario, run_scenario, run_scenario_sweep
from repro.net.lens import NET_EVENT_NAMES, NODE_STATES
from repro.obs.flight import NET_FAILURE_CAUSES, classify_net_failure
from repro.obs.metrics import MetricsRegistry, get_registry, set_registry
from repro.obs.sink import SCHEMA_VERSION, read_jsonl
from repro.obs.summarize import summarize_events
from repro.obs.timeline import extract_intervals, render_timeline


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous = set_registry(MetricsRegistry())
    obs.shutdown()
    yield
    obs.shutdown()
    set_registry(previous)


def _small_spec(**overrides):
    defaults = dict(n_packets=30, duration_us=30_000.0)
    defaults.update(overrides)
    return builtin_scenario("hidden-node", **defaults)


# ---------------------------------------------------------------------------
# Airtime ledger
# ---------------------------------------------------------------------------


class TestLedgerConservation:
    @pytest.mark.parametrize("scenario,seed", [
        ("hidden-node", 0), ("hidden-node", 7), ("contention", 3),
    ])
    def test_fractions_sum_to_one(self, scenario, seed):
        spec = builtin_scenario(scenario, n_packets=25, duration_us=40_000.0)
        result = run_scenario(spec, rng=seed, lens=NetLens())
        ledger = result.ledger
        for name, row in ledger["per_node"].items():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9), name
            state_us = (row["tx_us"] + row["busy_us"]
                        + row["backoff_us"] + row["idle_us"])
            assert state_us == pytest.approx(ledger["duration_us"], abs=1e-6)

    def test_tx_time_splits_exactly_by_kind(self):
        result = run_scenario(_small_spec(control="explicit"), rng=1,
                              lens=NetLens())
        for name, row in result.ledger["per_node"].items():
            split = row["tx_data_us"] + row["tx_control_us"] + row["tx_ack_us"]
            assert split == pytest.approx(row["tx_us"], abs=1e-6), name

    @pytest.mark.parametrize("seed", [0, 9])
    def test_multi_bss_roaming_conserves_airtime(self, seed):
        """Conservation holds with beacons, roaming, and mobile nodes."""
        spec = builtin_scenario("campus-roaming", duration_us=150_000.0)
        result = run_scenario(spec, rng=seed, lens=NetLens())
        ledger = result.ledger
        for name, row in ledger["per_node"].items():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9), name
            split = (row["tx_data_us"] + row["tx_control_us"]
                     + row["tx_ack_us"] + row["tx_beacon_us"])
            assert split == pytest.approx(row["tx_us"], abs=1e-6), name
        # The per-BSS rollup partitions exactly what the nodes report.
        for key in ("tx_us", "busy_us", "idle_us"):
            assert sum(v[key] for v in ledger["per_bss"].values()) == \
                pytest.approx(
                    sum(r[key] for r in ledger["per_node"].values()),
                    abs=1e-6)

    def test_channel_busy_matches_event_union(self):
        lens = NetLens()
        result = run_scenario(_small_spec(), rng=2, lens=lens)
        ledger = result.ledger
        intervals, _horizon = extract_intervals(result.events)
        # Sweep the union of on-air intervals, clipped at the horizon the
        # ledger closed on (a transmission may still be in flight there).
        end = ledger["duration_us"]
        edges = sorted(
            [(min(iv.start_us, end), 1) for iv in intervals]
            + [(min(iv.end_us, end), -1) for iv in intervals]
        )
        busy, active, opened = 0.0, 0, 0.0
        for t, delta in edges:
            if active == 0 and delta > 0:
                opened = t
            active += delta
            if active == 0 and delta < 0:
                busy += t - opened
        assert busy == pytest.approx(ledger["channel_busy_us"], abs=1e-6)

    def test_ledger_in_result_dict(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        d = result.to_dict()
        assert set(d["ledger"]["per_node"]) == {"ap", "sta_near", "sta_hidden"}
        assert set(d["profile"]) >= {"events_per_sec", "sim_wall_ratio"}

    def test_disabled_lens_attaches_nothing(self):
        result = run_scenario(_small_spec(), rng=0)
        assert result.ledger is None and result.profile is None
        assert result.events is None
        assert "ledger" not in result.to_dict()


class TestControlAirtime:
    def test_cos_strictly_below_explicit(self):
        kw = dict(n_packets=40, duration_us=60_000.0)
        explicit = run_scenario(
            builtin_scenario("hidden-node", control="explicit", **kw),
            rng=0, lens=NetLens(trace=False, profile=False))
        cos = run_scenario(
            builtin_scenario("hidden-node", control="cos", **kw),
            rng=0, lens=NetLens(trace=False, profile=False))
        frac_explicit = explicit.ledger["control_airtime_fraction"]
        frac_cos = cos.ledger["control_airtime_fraction"]
        assert frac_explicit > 0.0
        assert frac_cos < frac_explicit
        assert frac_cos == 0.0  # CoS feedback rides silences: zero airtime


# ---------------------------------------------------------------------------
# Event trace: schema + determinism
# ---------------------------------------------------------------------------


class TestTraceSchema:
    def test_golden_record_shape(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert result.events
        for ev in result.events:
            assert ev["type"] == "net"
            assert ev["schema"] == SCHEMA_VERSION
            assert ev["event"] in NET_EVENT_NAMES
            assert isinstance(ev["seq"], int)
            assert ev["t_us"] >= 0.0
            assert "wall_ts" in ev  # wall_clock=True is the default

    def test_seq_is_emission_order(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        assert [ev["seq"] for ev in result.events] == list(
            range(len(result.events)))

    def test_tx_end_carries_cause_taxonomy(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        causes = [ev["cause"] for ev in result.events
                  if ev["event"] == "tx_end" and "cause" in ev]
        assert causes, "no addressed tx_end records"
        assert set(causes) <= set(NET_FAILURE_CAUSES)

    def test_wall_clock_off_removes_wall_ts(self):
        result = run_scenario(_small_spec(), rng=0,
                              lens=NetLens(wall_clock=False))
        assert all("wall_ts" not in ev for ev in result.events)

    def test_max_events_cap(self):
        lens = NetLens(max_events=10)
        run_scenario(_small_spec(), rng=0, lens=lens)
        assert len(lens.events) == 10
        assert lens.n_events_dropped > 0

    def test_classify_net_failure(self):
        assert classify_net_failure(True, "ok") == "ok"
        assert classify_net_failure(False, "collision") == "collision"
        assert classify_net_failure(False, "rx_busy") == "rx_busy"
        # Unknown reasons fold into channel_error, never crash.
        assert classify_net_failure(False, "???") == "channel_error"


class TestTraceDeterminism:
    def test_serial_vs_pool_byte_identical(self):
        spec = _small_spec()
        lens_cfg = {"wall_clock": False, "profile": False}
        serial = run_scenario_sweep(spec, n_trials=2, seed=5, workers=0,
                                    lens=lens_cfg)
        pooled = run_scenario_sweep(spec, n_trials=2, seed=5, workers=2,
                                    lens=lens_cfg)
        for a, b in zip(serial, pooled):
            ev_a = sorted(a.events, key=lambda e: (e["t_us"], e["seq"]))
            ev_b = sorted(b.events, key=lambda e: (e["t_us"], e["seq"]))
            assert json.dumps(ev_a) == json.dumps(ev_b)
            assert a.ledger == b.ledger

    def test_multi_bss_serial_vs_pool_byte_identical(self):
        """The roaming scenario (beacons, hand-offs, traffic generators,
        grid-culled medium) replays byte-for-byte across executors."""
        spec = builtin_scenario("campus-roaming", duration_us=150_000.0)
        lens_cfg = {"wall_clock": False, "profile": False}
        serial = run_scenario_sweep(spec, n_trials=2, seed=3, workers=0,
                                    lens=lens_cfg)
        pooled = run_scenario_sweep(spec, n_trials=2, seed=3, workers=2,
                                    lens=lens_cfg)
        for a, b in zip(serial, pooled):
            assert json.dumps(a.events) == json.dumps(b.events)
            assert a.ledger == b.ledger
            assert a.to_dict() == b.to_dict()
            assert a.n_roams == b.n_roams and a.n_roams > 0


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_profile_reports_throughput(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        prof = result.profile
        assert prof["n_events"] == result.n_events > 0
        assert prof["events_per_sec"] > 0
        assert prof["sim_wall_ratio"] > 0
        assert prof["by_type"]
        for stats in prof["by_type"].values():
            assert stats["count"] > 0
            assert stats["p95_us"] >= stats["p50_us"] >= 0.0

    def test_profiler_uninstalled_after_disabled_run(self):
        from repro.net.simulator import NetSimulator

        sim = NetSimulator(_small_spec(), rng=0)
        assert sim.scheduler.profiler is None


# ---------------------------------------------------------------------------
# Metrics folding
# ---------------------------------------------------------------------------


class TestMetricsFold:
    def test_ledger_folds_into_registry(self):
        lens = NetLens()
        result = run_scenario(_small_spec(), rng=0, lens=lens)
        reg = get_registry()
        airtime = reg.counter("repro_net_airtime_us_total")
        total = sum(
            airtime.labels(node=name, state=state).value
            for name in result.ledger["per_node"]
            for state in NODE_STATES
        )
        n_nodes = len(result.ledger["per_node"])
        assert total == pytest.approx(
            n_nodes * result.ledger["duration_us"], abs=1e-6)
        assert reg.gauge("repro_net_events_per_sec").value > 0

    def test_sweep_merges_worker_metrics(self):
        spec = _small_spec()
        run_scenario_sweep(spec, n_trials=2, seed=5, workers=2,
                           lens={"wall_clock": False})
        fam = get_registry().counter("repro_net_channel_busy_us_total")
        assert fam.value > 0


# ---------------------------------------------------------------------------
# JSONL robustness (satellite: truncated final line)
# ---------------------------------------------------------------------------


class TestReadJsonlTruncation:
    def test_truncated_final_line_is_skipped(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n{"b": 2}\n{"trunc')
        assert list(read_jsonl(path)) == [{"a": 1}, {"b": 2}]

    def test_truncated_final_line_strict_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\n{"trunc')
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path, strict=True))

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"a": 1}\nnot json at all\n{"b": 2}\n')
        with pytest.raises(json.JSONDecodeError):
            list(read_jsonl(path))


# ---------------------------------------------------------------------------
# Summarize + timeline over net traces
# ---------------------------------------------------------------------------


class TestNetSummaries:
    def test_summarize_counts_net_events(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        summary = summarize_events(result.events)
        assert summary.n_net_events == len(result.events)
        assert summary.net_events["tx_start"] > 0
        assert set(summary.net_causes) <= set(NET_FAILURE_CAUSES)
        assert summary.n_spans == 0

    def test_render_timeline(self):
        result = run_scenario(_small_spec(), rng=0, lens=NetLens())
        text = render_timeline(result.events, width=40)
        assert "channel" in text
        assert "sta_hidden" in text and "sta_near" in text
        assert "#" in text and "D" in text
        assert "airtime %" in text

    def test_render_timeline_empty(self):
        assert "no net tx_start events" in render_timeline([])


# ---------------------------------------------------------------------------
# CLI surfaces
# ---------------------------------------------------------------------------


class TestLensCli:
    def test_ledger_out_stdout(self, capsys):
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--ledger-out", "-"]) == 0
        out = capsys.readouterr().out
        ledger = json.loads(out[out.index("{"):])
        assert ledger["scenario"] == "hidden-node"
        for row in ledger["per_node"].values():
            assert sum(row["fractions"].values()) == pytest.approx(
                1.0, abs=1e-9)
        assert 0.0 < ledger["channel_busy_fraction"] <= 1.0

    def test_timeline_roundtrip(self, tmp_path, capsys):
        trace = tmp_path / "net.jsonl"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--timeline-out", str(trace)]) == 0
        capsys.readouterr()
        events = list(read_jsonl(str(trace), strict=True))
        assert events
        for ev in events:
            assert ev["type"] == "net" and ev["schema"] == SCHEMA_VERSION, ev
            assert ev["event"] in NET_EVENT_NAMES, ev
        assert main(["--quiet", "obs", "timeline", str(trace),
                     "--width", "50"]) == 0
        out = capsys.readouterr().out
        assert "Airtime timeline" in out
        assert "(channel)" in out

    def test_summarize_json_includes_net_fields(self, tmp_path, capsys):
        trace = tmp_path / "net.jsonl"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--timeline-out", str(trace)]) == 0
        capsys.readouterr()
        assert main(["--quiet", "obs", "summarize", str(trace),
                     "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["n_net_events"] > 0
        assert summary["net_events"]["tx_start"] > 0
        assert "ok" in summary["net_causes"]

    def test_summary_json_carries_ledger_when_lens_on(self, tmp_path,
                                                      capsys):
        ledger_path = tmp_path / "ledger.json"
        assert main(["--quiet", "net", "run", "hidden-node",
                     "--ledger-out", str(ledger_path),
                     "--json", "-"]) == 0
        out = capsys.readouterr().out
        summary = json.loads(out[out.index("{"):])
        assert "ledger" in summary and "profile" in summary
        assert summary["ledger"]["channel_busy_fraction"] > 0


# ---------------------------------------------------------------------------
# Unified summary shape (satellite: CLI JSON derives from to_dict)
# ---------------------------------------------------------------------------


class TestSummaryUnification:
    def test_summary_keys_match_to_dict(self):
        from repro.net import summarize_results

        spec = _small_spec()
        results = run_scenario_sweep(spec, n_trials=2, seed=1)
        summary = summarize_results(results)
        expected = set(results[0].to_dict()) | {"n_trials"}
        assert set(summary) == expected
        per_node = results[0].to_dict()["per_node"]
        for name, row in per_node.items():
            assert set(summary["per_node"][name]) >= set(row)

    def test_all_none_column_stays_none(self):
        from repro.net.simulator import _combine_values

        assert _combine_values([None, None]) is None
        assert _combine_values([{"a": None}, {"a": None}]) == {"a": None}
        assert _combine_values([{"a": 1.0}, {}]) == {"a": 0.5}
        assert _combine_values([{"a": "x"}, {"a": "x"}]) == {"a": "x"}
        assert _combine_values([2, 4]) == 3.0
