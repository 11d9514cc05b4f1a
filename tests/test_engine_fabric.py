"""Tests for the sweep fabric: work queue and ShardedExecutor.

Covers the claim protocol (leases, stealing, poisoning), bit-for-bit
equality of sharded vs. serial sweeps, the ``repro engine worker`` CLI
end-to-end against a live queue, and resume-after-SIGKILL via the result
store.
"""

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import core
from repro.engine import queue as fsqueue
from repro.engine.executors import ShardedExecutor
from repro.engine.spec import TrialError, make_specs
from repro.engine.store import ResultStore
from repro.obs.metrics import MetricsRegistry, set_registry

REPO = Path(__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _isolated_registry():
    previous = set_registry(MetricsRegistry())
    yield
    set_registry(previous)


def _subprocess_env():
    """Workers must be able to import repro *and* this test module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO / "src"), str(REPO)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_STORE", None)
    return env


# ---------------------------------------------------------------------------
# Module-level trial functions (picklable across spawn and CLI workers).
# ---------------------------------------------------------------------------

def _draw_trial(spec):
    rng = spec.rng()
    return (spec["x"], float(rng.normal()), rng.integers(0, 1 << 30).item())


def _failing_trial(spec):
    if spec["x"] == 3:
        raise ValueError("x=3 is cursed")
    return spec["x"]


def _slow_trial(spec):
    rng = spec.rng()
    deadline = time.perf_counter() + 0.2
    while time.perf_counter() < deadline:
        pass
    return float(rng.normal())


PARAMS = [{"x": i} for i in range(8)]


# ---------------------------------------------------------------------------
# Queue protocol
# ---------------------------------------------------------------------------

class TestQueueProtocol:
    def test_create_job_and_status(self, tmp_path):
        job_id = fsqueue.create_job(tmp_path, _draw_trial,
                                    make_specs(PARAMS, seed=0), chunk_size=3)
        status = fsqueue.job_status(tmp_path, job_id)
        assert status["n_specs"] == 8
        assert status["n_chunks"] == 3
        assert status["chunks_pending"] == 3
        assert status["chunks_done"] == 0
        assert status["cancelled"] is False

    def test_drain_worker_completes_a_job(self, tmp_path):
        specs = make_specs(PARAMS, seed=0)
        job_id = fsqueue.create_job(tmp_path, _draw_trial, specs, chunk_size=2)
        n = fsqueue.worker_loop(tmp_path, drain=True, isolate_obs=False)
        assert n == 4
        chunks = list(fsqueue.iter_job_results(tmp_path, job_id, timeout_s=5.0))
        results = {}
        for chunk in chunks:
            assert chunk.error is None
            results.update(zip(chunk.indices, chunk.results))
        assert [results[i] for i in range(8)] == core.run_trials(
            make_specs(PARAMS, seed=0), _draw_trial)

    def test_claims_are_exclusive(self, tmp_path):
        fsqueue.create_job(tmp_path, _draw_trial, make_specs(PARAMS[:2], seed=0),
                           chunk_size=1)
        job_dir = next((tmp_path / "jobs").iterdir())
        first = fsqueue.claim_next_chunk(job_dir, "w1")
        second = fsqueue.claim_next_chunk(job_dir, "w2")
        third = fsqueue.claim_next_chunk(job_dir, "w3")
        assert first == ("00000", 1)
        assert second == ("00001", 1)
        assert third is None  # everything leased, nothing stale

    def test_stale_lease_is_stolen_and_result_matches_clean_run(self, tmp_path):
        specs = make_specs(PARAMS, seed=0)
        job_id = fsqueue.create_job(tmp_path, _draw_trial, specs, chunk_size=2)
        job_dir = tmp_path / "jobs" / job_id
        # A worker claimed chunk 0 and died: stale claim, no heartbeat.
        claim = fsqueue.claim_next_chunk(job_dir, "dead-worker", lease_s=0.05)
        assert claim == ("00000", 1)
        old = time.time() - 60.0
        os.utime(job_dir / "claims" / "00000.json", times=(old, old))
        n = fsqueue.worker_loop(tmp_path, drain=True, lease_s=0.05,
                                isolate_obs=False)
        assert n == 4  # the stolen chunk plus the three fresh ones
        results = {}
        for chunk in fsqueue.iter_job_results(tmp_path, job_id, timeout_s=5.0):
            assert chunk.error is None
            results.update(zip(chunk.indices, chunk.results))
        # Retried chunk is bit-for-bit what a clean run produces.
        clean = core.run_trials(make_specs(PARAMS, seed=0), _draw_trial)
        assert pickle.dumps([results[i] for i in range(8)]) == pickle.dumps(clean)

    def test_poisoned_after_max_attempts(self, tmp_path):
        specs = make_specs(PARAMS[:2], seed=0)
        job_id = fsqueue.create_job(tmp_path, _draw_trial, specs, chunk_size=1)
        job_dir = tmp_path / "jobs" / job_id
        # Chunk 0 has burned its attempts: stale claim at the cap.
        (job_dir / "claims" / "00000.json").write_text(json.dumps(
            {"worker": "crash-loop", "attempt": 3, "claimed_ts": 0.0}))
        old = time.time() - 60.0
        os.utime(job_dir / "claims" / "00000.json", times=(old, old))
        fsqueue.worker_loop(tmp_path, drain=True, lease_s=0.05, max_attempts=3,
                            isolate_obs=False)
        assert (job_dir / "poison" / "00000.json").exists()
        chunks = list(fsqueue.iter_job_results(tmp_path, job_id, timeout_s=5.0))
        errors = [c for c in chunks if c.error is not None]
        assert len(errors) == 1
        assert "poisoned" in errors[0].error["message"]

    def test_cancel_stops_claiming(self, tmp_path):
        job_id = fsqueue.create_job(tmp_path, _draw_trial,
                                    make_specs(PARAMS, seed=0), chunk_size=2)
        fsqueue.cancel_job(tmp_path, job_id)
        n = fsqueue.worker_loop(tmp_path, drain=True, isolate_obs=False)
        assert n == 0
        assert fsqueue.job_status(tmp_path, job_id)["cancelled"] is True


# ---------------------------------------------------------------------------
# ShardedExecutor
# ---------------------------------------------------------------------------

class TestShardedExecutor:
    def test_two_shards_match_serial_bit_for_bit(self):
        serial = core.run_trials(make_specs(PARAMS, seed=9), _draw_trial)
        sharded = core.run_trials(
            make_specs(PARAMS, seed=9), _draw_trial,
            ShardedExecutor(2, lease_s=10.0, timeout_s=120.0))
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    def test_failing_trial_raises_trial_error_with_context(self):
        with pytest.raises(TrialError) as err:
            core.run_trials(
                make_specs(PARAMS, seed=9), _failing_trial,
                ShardedExecutor(2, chunk_size=1, lease_s=10.0, timeout_s=120.0))
        assert "cursed" in str(err.value)
        assert err.value.params == {"x": 3}

    def test_metrics_snapshots_fold_into_parent(self):
        registry = MetricsRegistry()
        core.run_trials(make_specs(PARAMS, seed=9), _metric_trial,
                        ShardedExecutor(2, lease_s=10.0, timeout_s=120.0),
                        registry=registry)
        assert registry.counter("fabric_test_trials_total").value == len(PARAMS)

    def test_workers_zero_requires_queue_dir(self):
        with pytest.raises(ValueError, match="queue_dir"):
            ShardedExecutor(0)

    def test_no_workers_times_out_without_external_help(self, tmp_path):
        with pytest.raises(TimeoutError):
            core.run_trials(
                make_specs(PARAMS[:2], seed=0), _draw_trial,
                ShardedExecutor(0, queue_dir=str(tmp_path), timeout_s=0.3))


def _metric_trial(spec):
    from repro.obs.metrics import get_registry

    get_registry().counter("fabric_test_trials_total").inc()
    return spec["x"]


# ---------------------------------------------------------------------------
# repro engine worker CLI, end to end
# ---------------------------------------------------------------------------

class TestWorkerCli:
    def test_external_cli_workers_serve_a_sharded_sweep(self, tmp_path):
        serial = core.run_trials(make_specs(PARAMS, seed=4), _draw_trial)
        workers = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "engine", "worker",
                 "--queue", str(tmp_path), "--max-seconds", "120",
                 "--lease", "10"],
                env=_subprocess_env(), cwd=str(REPO),
                stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
            for _ in range(2)
        ]
        try:
            sharded = core.run_trials(
                make_specs(PARAMS, seed=4), _draw_trial,
                ShardedExecutor(0, queue_dir=str(tmp_path), timeout_s=120.0))
        finally:
            for w in workers:
                w.terminate()
            for w in workers:
                w.wait(timeout=10)
        assert pickle.dumps(sharded) == pickle.dumps(serial)

    def test_drain_worker_cli_exits_on_empty_queue(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "engine", "worker",
             "--queue", str(tmp_path), "--drain"],
            env=_subprocess_env(), cwd=str(REPO),
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert "processed 0 chunk(s)" in proc.stdout


# ---------------------------------------------------------------------------
# Resume after SIGKILL: the store replays everything already finished
# ---------------------------------------------------------------------------

_KILL_SCRIPT = """
import sys
from repro.engine import core
from repro.engine.spec import make_specs
from repro.engine.store import ResultStore
from tests.test_engine_fabric import _slow_trial

store = ResultStore(sys.argv[1])
params = [{"x": i} for i in range(10)]
core.run_trials(make_specs(params, seed=21), _slow_trial, store=store)
"""


class TestKillResume:
    def test_resume_after_kill_recomputes_only_the_delta(self, tmp_path):
        store_dir = tmp_path / "store"
        proc = subprocess.Popen(
            [sys.executable, "-c", _KILL_SCRIPT, str(store_dir)],
            env=_subprocess_env(), cwd=str(REPO),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        # Wait until some trials have landed in the store, then SIGKILL
        # mid-sweep.
        deadline = time.monotonic() + 60.0
        n_before = 0
        while time.monotonic() < deadline:
            n_before = len(list(store_dir.glob("objects/*/*.pkl")))
            if n_before >= 2:
                break
            if proc.poll() is not None:  # pragma: no cover — too fast
                break
            time.sleep(0.02)
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=10)
        n_before = len(list(store_dir.glob("objects/*/*.pkl")))
        assert 0 < n_before < 10, "kill landed before/after the window"

        params = [{"x": i} for i in range(10)]
        registry = MetricsRegistry()
        store = ResultStore(store_dir)
        resumed = core.run_trials(make_specs(params, seed=21), _slow_trial,
                                  store=store, registry=registry)
        # Zero recomputation of finished trials, by the store counters...
        assert store.hits == n_before
        assert store.writes == 10 - n_before
        assert registry.counter("repro_store_hits_total").value == n_before
        # ...and the resumed output equals a clean serial run, bit for bit.
        clean = core.run_trials(make_specs(params, seed=21), _slow_trial)
        assert pickle.dumps(resumed) == pickle.dumps(clean)
