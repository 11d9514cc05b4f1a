"""Filesystem-backed work queue: sharded sweeps across processes and hosts.

A *job* is one sweep's worth of trial chunks, laid out under a queue
root any number of independent worker processes can see — a local
directory for multi-process runs, a shared filesystem for multi-host
ones.  Workers are started with ``repro engine worker --queue DIR`` (or
spawned locally by :class:`~repro.engine.executors.ShardedExecutor`);
they need nothing from the submitting process but the directory.

Layout::

    <root>/jobs/<job_id>/
      chunks/<cid>.pkl      # pickle {"fn": trial_fn, "specs": [TrialSpec...]}
      init.pkl              # optional (init, init_args) per-worker hook
      job.json              # manifest — written LAST, marks the job ready
      claims/<cid>.json     # lease: {"worker", "attempt", "claimed_ts"}
      results/<cid>.pkl     # pickled ChunkResult (atomic tmp+rename)
      poison/<cid>.json     # chunk gave up after max_attempts leases
      cancel.json           # submitter aborted; workers stop claiming

Claim protocol
--------------
* A chunk with a ``results/`` or ``poison/`` entry is done.
* A fresh claim is ``open(claims/<cid>.json, O_CREAT|O_EXCL)`` — exactly
  one worker wins.  The winner heartbeats the claim file's mtime while
  executing.
* A claim whose mtime is older than the lease is *stale* (its worker
  died or lost the host).  Any worker may steal it by atomically
  replacing the claim with ``attempt + 1`` — unless the attempt count
  has reached ``max_attempts``, in which case it writes a ``poison``
  marker instead and the submitter fails fast with a
  :class:`~repro.engine.spec.TrialError`.

Because trials are pure functions of their spec, the rare race where two
workers execute the same chunk (a steal during a long GC pause, say) is
harmless: both produce identical bytes and the atomic rename keeps
whichever landed last.  Correctness never depends on mutual exclusion —
leases only exist to avoid wasted work.
"""

from __future__ import annotations

import json
import logging
import os
import pickle
import tempfile
import threading
import time
import traceback
import uuid
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.engine.spec import TrialSpec
from repro.engine.worker import ChunkResult, initialize_state, run_chunk_in_worker

__all__ = [
    "DEFAULT_LEASE_S",
    "DEFAULT_MAX_ATTEMPTS",
    "create_job",
    "cancel_job",
    "job_status",
    "iter_job_results",
    "claim_next_chunk",
    "worker_loop",
]

log = logging.getLogger("repro.engine.queue")

DEFAULT_LEASE_S = 30.0
DEFAULT_MAX_ATTEMPTS = 3


# ---------------------------------------------------------------------------
# Path helpers
# ---------------------------------------------------------------------------

def _jobs_root(root: Union[str, Path]) -> Path:
    return Path(root) / "jobs"


def _job_dir(root: Union[str, Path], job_id: str) -> Path:
    return _jobs_root(root) / job_id


def _chunk_ids(job_dir: Path) -> List[str]:
    return sorted(p.stem for p in (job_dir / "chunks").glob("*.pkl"))


def _atomic_write(path: Path, payload: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# Submission
# ---------------------------------------------------------------------------

def create_job(
    root: Union[str, Path],
    fn: Callable[[TrialSpec], Any],
    specs: Sequence[TrialSpec],
    *,
    chunk_size: int = 1,
    init: Optional[Callable[..., Any]] = None,
    init_args: Tuple = (),
    job_id: Optional[str] = None,
) -> str:
    """Write a job's chunks under ``root`` and return its id.

    The manifest (``job.json``) is written last and atomically, so a
    worker that lists the queue mid-write never sees a half-built job.
    """
    specs = list(specs)
    job_id = job_id or f"{time.strftime('%Y%m%d-%H%M%S')}-{uuid.uuid4().hex[:8]}"
    job_dir = _job_dir(root, job_id)
    (job_dir / "chunks").mkdir(parents=True, exist_ok=False)
    for sub in ("claims", "results", "poison"):
        (job_dir / sub).mkdir(exist_ok=True)

    size = max(int(chunk_size), 1)
    chunks = [specs[i: i + size] for i in range(0, len(specs), size)]
    for c, members in enumerate(chunks):
        payload = pickle.dumps({"fn": fn, "specs": members},
                               protocol=pickle.HIGHEST_PROTOCOL)
        _atomic_write(job_dir / "chunks" / f"{c:05d}.pkl", payload)
    if init is not None:
        _atomic_write(job_dir / "init.pkl",
                      pickle.dumps((init, init_args),
                                   protocol=pickle.HIGHEST_PROTOCOL))
    manifest = {
        "job_id": job_id,
        "n_chunks": len(chunks),
        "n_specs": len(specs),
        "chunk_size": size,
        "created_ts": time.time(),
    }
    _atomic_write(job_dir / "job.json",
                  (json.dumps(manifest, indent=2) + "\n").encode())
    log.debug("job %s: %d specs in %d chunks under %s",
              job_id, len(specs), len(chunks), root)
    return job_id


def cancel_job(root: Union[str, Path], job_id: str) -> None:
    """Mark a job cancelled: workers stop claiming its remaining chunks."""
    job_dir = _job_dir(root, job_id)
    if job_dir.exists():
        _atomic_write(job_dir / "cancel.json",
                      (json.dumps({"cancelled_ts": time.time()}) + "\n").encode())


def job_status(root: Union[str, Path], job_id: str) -> Dict[str, Any]:
    """Counters for a job: chunks total / claimed / done / poisoned."""
    job_dir = _job_dir(root, job_id)
    manifest = json.loads((job_dir / "job.json").read_text())
    ids = _chunk_ids(job_dir)
    done = {p.stem for p in (job_dir / "results").glob("*.pkl")}
    poisoned = {p.stem for p in (job_dir / "poison").glob("*.json")}
    claimed = {p.stem for p in (job_dir / "claims").glob("*.json")}
    return {
        **manifest,
        "chunks_done": len(done),
        "chunks_poisoned": len(poisoned),
        "chunks_claimed": len(claimed - done - poisoned),
        "chunks_pending": len([c for c in ids if c not in done and c not in poisoned]),
        "cancelled": (job_dir / "cancel.json").exists(),
    }


# ---------------------------------------------------------------------------
# Collection (submitter side)
# ---------------------------------------------------------------------------

def iter_job_results(
    root: Union[str, Path],
    job_id: str,
    *,
    poll_s: float = 0.05,
    timeout_s: Optional[float] = None,
) -> Iterator[ChunkResult]:
    """Yield each chunk's :class:`ChunkResult` as it lands on disk.

    A poisoned chunk yields a ChunkResult whose ``error`` describes the
    poisoning (the submitter's ``run_trials`` raises it as a
    :class:`~repro.engine.spec.TrialError`).  Raises ``TimeoutError``
    if ``timeout_s`` elapses with chunks still outstanding and no
    worker progress.
    """
    job_dir = _job_dir(root, job_id)
    remaining = set(_chunk_ids(job_dir))
    deadline = (time.monotonic() + timeout_s) if timeout_s is not None else None
    while remaining:
        progressed = False
        for cid in sorted(remaining):
            result_path = job_dir / "results" / f"{cid}.pkl"
            if result_path.exists():
                try:
                    with open(result_path, "rb") as fh:
                        chunk = pickle.load(fh)
                except Exception:
                    # Mid-rename on exotic filesystems or a corrupt
                    # result: let a later pass retry the read.
                    continue
                remaining.discard(cid)
                progressed = True
                yield chunk
                continue
            poison_path = job_dir / "poison" / f"{cid}.json"
            if poison_path.exists():
                info = json.loads(poison_path.read_text())
                remaining.discard(cid)
                progressed = True
                yield ChunkResult(error={
                    "message": info.get(
                        "message", "chunk poisoned after repeated lease expiry"),
                    "index": int(info.get("index", -1)),
                    "params": info.get("params"),
                    "seed_entropy": None,
                    "traceback_text": info.get("traceback_text", ""),
                })
        if not remaining:
            return
        if progressed:
            if deadline is not None:
                deadline = time.monotonic() + timeout_s
            continue
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(
                f"job {job_id}: {len(remaining)} chunk(s) still pending after "
                f"{timeout_s:.1f}s without progress — are any workers running "
                f"against {root}?"
            )
        time.sleep(poll_s)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

def _read_claim(path: Path) -> Optional[Dict[str, Any]]:
    try:
        return json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None


def claim_next_chunk(
    job_dir: Path,
    worker_id: str,
    *,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> Optional[Tuple[str, int]]:
    """Claim one pending chunk of a job; ``(chunk_id, attempt)`` or None.

    Prefers unclaimed chunks; falls back to stealing stale leases
    (poisoning chunks that already burned ``max_attempts`` leases).
    """
    if (job_dir / "cancel.json").exists():
        return None
    done = {p.stem for p in (job_dir / "results").glob("*.pkl")}
    done |= {p.stem for p in (job_dir / "poison").glob("*.json")}
    now = time.time()
    stale: List[Tuple[str, Dict[str, Any]]] = []
    for cid in _chunk_ids(job_dir):
        if cid in done:
            continue
        claim_path = job_dir / "claims" / f"{cid}.json"
        body = json.dumps({"worker": worker_id, "attempt": 1,
                           "claimed_ts": now}).encode()
        try:
            fd = os.open(claim_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            claim = _read_claim(claim_path)
            try:
                age = now - claim_path.stat().st_mtime
            except OSError:
                continue  # completed and cleaned up between list and stat
            if claim is not None and age > lease_s:
                stale.append((cid, claim))
            continue
        with os.fdopen(fd, "wb") as fh:
            fh.write(body)
        return cid, 1

    for cid, claim in stale:
        # Re-check: the lease holder may have finished while we scanned.
        if (job_dir / "results" / f"{cid}.pkl").exists():
            continue
        attempt = int(claim.get("attempt", 1))
        if attempt >= max_attempts:
            _poison_chunk(job_dir, cid, attempt)
            continue
        _atomic_write(job_dir / "claims" / f"{cid}.json",
                      json.dumps({"worker": worker_id, "attempt": attempt + 1,
                                  "claimed_ts": time.time()}).encode())
        log.warning("stole stale lease on %s/%s (attempt %d)",
                    job_dir.name, cid, attempt + 1)
        return cid, attempt + 1
    return None


def _poison_chunk(job_dir: Path, cid: str, attempts: int) -> None:
    """Mark a chunk permanently failed; carries the first spec's context."""
    index, params = -1, None
    try:
        with open(job_dir / "chunks" / f"{cid}.pkl", "rb") as fh:
            chunk = pickle.load(fh)
        first = chunk["specs"][0]
        index, params = first.index, first.params
    except Exception:
        pass
    _atomic_write(job_dir / "poison" / f"{cid}.json", (json.dumps({
        "message": (f"chunk {cid} poisoned after {attempts} expired lease(s) "
                    "(worker crash or kill loop)"),
        "index": index,
        "params": {k: repr(v) for k, v in (params or {}).items()},
        "poisoned_ts": time.time(),
    }) + "\n").encode())
    log.error("poisoned %s/%s after %d attempts", job_dir.name, cid, attempts)


def _execute_chunk(job_dir: Path, cid: str, *, heartbeat_s: float) -> None:
    """Run one claimed chunk and publish its ChunkResult atomically."""
    claim_path = job_dir / "claims" / f"{cid}.json"
    stop = threading.Event()

    def _beat() -> None:
        while not stop.wait(heartbeat_s):
            try:
                os.utime(claim_path)
            except OSError:
                return  # claim stolen/cleaned — stop beating

    beater = threading.Thread(target=_beat, daemon=True,
                              name=f"lease-heartbeat-{cid}")
    beater.start()
    try:
        try:
            with open(job_dir / "chunks" / f"{cid}.pkl", "rb") as fh:
                chunk = pickle.load(fh)
        except Exception as exc:
            # Most commonly the trial function's module is not importable
            # on this host.  Publish the failure as the chunk's result so
            # the submitter fails fast with the cause instead of burning
            # leases until the chunk is poisoned.
            result = ChunkResult(error={
                "message": (f"worker could not load chunk {cid}: "
                            f"{type(exc).__name__}: {exc} — is the trial "
                            "function's module importable on the worker "
                            "host?"),
                "index": -1,
                "params": None,
                "seed_entropy": None,
                "traceback_text": traceback.format_exc(),
            })
        else:
            result = run_chunk_in_worker(chunk["fn"], chunk["specs"])
        _atomic_write(job_dir / "results" / f"{cid}.pkl",
                      pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    finally:
        stop.set()
        beater.join(timeout=1.0)


def worker_loop(
    root: Union[str, Path],
    *,
    worker_id: Optional[str] = None,
    poll_s: float = 0.2,
    lease_s: float = DEFAULT_LEASE_S,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    drain: bool = False,
    max_seconds: Optional[float] = None,
    isolate_obs: bool = True,
) -> int:
    """Serve chunks from every job under ``root``; returns chunks done.

    ``drain=True`` exits once no claimable work remains (local fan-out
    and CI); otherwise the worker keeps polling for new jobs until
    ``max_seconds`` (a long-lived worker on a shared host).  Each worker
    process runs its chunks against a fresh metrics registry, so results
    carry snapshot deltas exactly as the process-pool executor's workers
    do.
    """
    from repro.engine.worker import worker_initializer

    if isolate_obs:
        worker_initializer(None, ())
    worker_id = worker_id or f"{os.uname().nodename}-{os.getpid()}"
    heartbeat_s = max(lease_s / 4.0, 0.05)
    t0 = time.monotonic()
    n_done = 0
    inited_jobs: set = set()
    jobs_root = _jobs_root(root)
    while True:
        worked = False
        if jobs_root.exists():
            for job_dir in sorted(p for p in jobs_root.iterdir() if p.is_dir()):
                if not (job_dir / "job.json").exists():
                    continue  # mid-submission
                claim = claim_next_chunk(job_dir, worker_id,
                                         lease_s=lease_s,
                                         max_attempts=max_attempts)
                if claim is None:
                    continue
                cid, attempt = claim
                log.debug("worker %s: chunk %s/%s (attempt %d)",
                          worker_id, job_dir.name, cid, attempt)
                try:
                    if job_dir.name not in inited_jobs:
                        _run_job_init(job_dir)
                        inited_jobs.add(job_dir.name)
                    _execute_chunk(job_dir, cid, heartbeat_s=heartbeat_s)
                except Exception as exc:
                    # Infrastructure failure (init unpicklable, result
                    # write failed, ...) — surface it as the chunk's
                    # result if we still can, and keep the worker alive
                    # for other jobs.
                    log.exception("chunk %s/%s failed outside trial "
                                  "execution", job_dir.name, cid)
                    try:
                        _atomic_write(
                            job_dir / "results" / f"{cid}.pkl",
                            pickle.dumps(ChunkResult(error={
                                "message": (f"worker failed on chunk {cid}: "
                                            f"{type(exc).__name__}: {exc}"),
                                "index": -1,
                                "params": None,
                                "seed_entropy": None,
                                "traceback_text": traceback.format_exc(),
                            }), protocol=pickle.HIGHEST_PROTOCOL))
                    except Exception:
                        pass  # lease expiry / poisoning is the backstop
                n_done += 1
                worked = True
                break  # rescan from the top: earlier jobs first
        if worked:
            continue
        if drain:
            return n_done
        if max_seconds is not None and time.monotonic() - t0 >= max_seconds:
            return n_done
        time.sleep(poll_s)


def _run_job_init(job_dir: Path) -> None:
    """Apply the job's per-worker ``init`` hook, if it shipped one."""
    init_path = job_dir / "init.pkl"
    if not init_path.exists():
        return
    with open(init_path, "rb") as fh:
        init, init_args = pickle.load(fh)
    initialize_state(init, init_args)


def _spawned_worker_main(root: str, poll_s: float, lease_s: float,
                         max_attempts: int) -> None:
    """Entry point for locally spawned worker processes (picklable)."""
    worker_loop(root, poll_s=poll_s, lease_s=lease_s,
                max_attempts=max_attempts, drain=True)
