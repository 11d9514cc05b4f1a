"""The benchmark's four workloads.

Every workload is one process, one caller, a closed loop: the next
operation starts when the previous one returned.  The engine runs serial
(``workers=0``) and nothing starts a thread.

* ``cos-link`` — :meth:`CosLink.exchange` over channel position A at a
  measured 15 dB (the staircase picks 24/36 Mbps), 1 KiB payloads and 32
  random control bits per exchange.  The single-packet PHY path plus the
  CoS tx/rx layers; never enters ``engine`` or ``net``.  The loop restarts
  on a fresh channel realisation every session, so a run averages over
  many channels instead of following one walk into a fade.
* ``prr-sweep`` — the surrogate-table PRR build: a serial
  :func:`repro.engine.run_sweep` of ``measure_prr_point`` over rates
  {6, 24, 54} x SINR -2..30 dB (2 dB, the table's step) x 2 channel seeds,
  50 x 256 B packets a point, into a fresh store, then a warm replay.  The
  batched receiver, the engine and the store; no ``CosReceiver``, no EVD.
* ``net-grid`` — ``enterprise-grid``, 1024 nodes, 100 ms simulated: large
  interference fan-out, so ``net/medium.py`` dominates.
* ``net-cell`` — ``contention``, 16 saturated stations that all hear each
  other: scheduler, MAC countdown and carrier-state updates dominate.

A workload's *operation* is what ``attempted``/``failed`` count: an
exchange, a sweep point, a scheduler run.  Its *step* is what the latency
percentiles time: an exchange, a sweep point, one simulated millisecond.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import shutil
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from clock import WallClock
from layers import Extra, instrument, layer_metrics

perf_counter = time.perf_counter


@dataclasses.dataclass
class Outcome:
    """What one run produced: counts, timings, checks and a digest."""

    attempted: int = 0
    failed: int = 0
    #: Step latencies and ``work_s`` are wall seconds scaled by the clock
    #: the run was measured with (see ``clock.py``).
    steps_s: List[float] = dataclasses.field(default_factory=list)
    #: Units of work done (exchanges, probe packets, scheduler events) and
    #: the seconds spent doing them: ``work / work_s`` is the throughput.
    work: int = 0
    work_s: float = 0.0
    problems: List[str] = dataclasses.field(default_factory=list)
    digest: str = ""
    layers: Dict[str, Dict] = dataclasses.field(default_factory=dict)

    def fail(self, message: str, n: int = 1) -> None:
        self.failed += n
        if len(self.problems) < 10:
            self.problems.append(message)

    def absorb(self, other: "Outcome") -> None:
        """Count another pass's operations and failures as this run's."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems[: 10 - len(self.problems)]


def _derived_seed(*entropy: int) -> int:
    return int(np.random.SeedSequence(list(entropy)).generate_state(1)[0])


# ---------------------------------------------------------------------------
# cos-link
# ---------------------------------------------------------------------------


class _LinkSession:
    """One closed-loop CoS session plus what the checks need to know."""

    def __init__(self, link, rng: np.random.Generator) -> None:
        self.link = link
        self.rng = rng
        self.pending: List[int] = []  # offered control bits not yet embedded
        self.last_rx = None
        receive = link.rx.receive

        def capture(*args, **kwargs):
            self.last_rx = receive(*args, **kwargs)
            return self.last_rx

        link.rx.receive = capture


class CosLinkBench:
    name = "cos-link"
    POSITION = "A"
    SNR_DB = 15.0
    PAYLOAD_OCTETS = 1024
    CONTROL_BITS = 32

    def __init__(self, seed: int, smoke: bool, build_dir: Path) -> None:
        self.seed = seed
        self.session_len = 5 if smoke else 25
        # >= 200 exchanges: twenty samples beyond the 90th percentile.
        self.min_exchanges = 10 if smoke else 200
        self._fixture: Optional[_LinkSession] = None

    def setup(self) -> None:
        from repro import kernels
        from repro.channel import IndoorChannel
        from repro.cos import CosLink

        self._channel_cls, self._link_cls = IndoorChannel, CosLink
        kernels.warmup()
        self._fixture = self._session(0)

    def _session(self, index: int) -> _LinkSession:
        channel = self._channel_cls.position(
            self.POSITION, snr_db=self.SNR_DB,
            seed=_derived_seed(self.seed, index),
        )
        rng = np.random.default_rng([self.seed, index, 1])
        return _LinkSession(self._link_cls(channel=channel), rng)

    def _run(self, out: Outcome, index: int, digest, tally: List[int],
             clock) -> None:
        """One session of exchanges, each checked against what was sent."""
        session = self._fixture if index == 0 and self._fixture else self._session(index)
        self._fixture = None
        for _ in range(self.session_len):
            payload = session.rng.bytes(self.PAYLOAD_OCTETS)
            bits = session.rng.integers(0, 2, self.CONTROL_BITS, dtype=np.uint8)
            session.pending.extend(bits.tolist())
            out.attempted += 1
            t0 = perf_counter()
            try:
                o = session.link.exchange(payload, bits)
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                out.fail(f"exchange raised {type(exc).__name__}: {exc}")
                return  # the session state is suspect: start a new one
            out.steps_s.append(clock.scale(perf_counter() - t0))
            out.work += 1
            out.work_s += out.steps_s[-1]
            n = o.control_sent.size
            expected = np.asarray(session.pending[:n], dtype=np.uint8)
            del session.pending[:n]
            if not np.array_equal(o.control_sent, expected):
                out.fail("embedded control bits are not the offered ones")
            elif o.data_ok and session.last_rx.payload != payload:
                out.fail("data_ok exchange returned another payload")
            elif o.control_ok and not np.array_equal(o.control_received, expected):
                out.fail("control_ok exchange returned other bits")
            tally[0] += bool(o.data_ok)
            tally[1] += n > 0
            tally[2] += bool(n > 0 and o.control_ok)
            digest.update(bytes([o.data_ok, o.control_ok, o.rate_mbps]))
            digest.update(o.control_received.tobytes())

    def _loop(self, n_sessions: Optional[int], seconds: float = 0.0,
              clock=WallClock()):
        """Whole sessions: ``n_sessions`` of them, or until ``seconds`` and
        ``min_exchanges`` are both reached."""
        out, digest, tally = Outcome(), hashlib.sha256(), [0, 0, 0]
        t0 = perf_counter()
        index = 0
        while (index < n_sessions if n_sessions is not None else
               out.attempted < self.min_exchanges
               or perf_counter() - t0 < seconds):
            self._run(out, index, digest, tally, clock)
            index += 1
        wall = perf_counter() - t0
        out.digest = digest.hexdigest()
        return out, wall, tally

    def measure(self, seconds: float, clock) -> Outcome:
        return self._loop(None, seconds, clock)[0]

    def traced(self) -> Outcome:
        n_sessions = -(-self.min_exchanges // self.session_len)
        ref, wall_u, _ = self._loop(n_sessions)
        with instrument() as sink:
            out, wall_t, (crc_ok, with_control, control_ok) = self._loop(n_sessions)
        n = out.attempted
        if out.digest != ref.digest:
            out.fail("traced exchanges differ from untraced ones", n)
        extras = {
            "phy.rx.crc_ok_ratio": Extra(crc_ok / n, n),
            "cos.rx.control_ok_ratio": Extra(
                control_ok / with_control if with_control else 0.0, with_control),
            "trace.overhead_frac": Extra(wall_t / wall_u - 1.0, 1),
        }
        out.layers = layer_metrics(self.name, sink, n, extras)
        out.absorb(ref)
        return out


# ---------------------------------------------------------------------------
# prr-sweep
# ---------------------------------------------------------------------------


class PrrSweepBench:
    name = "prr-sweep"
    POSITION = "A"

    def __init__(self, seed: int, smoke: bool, build_dir: Path) -> None:
        self.seed = seed
        self.build_dir = build_dir
        if smoke:
            self.rates, self.sinrs, n_seeds, self.n_packets = (6, 54), (0.0, 20.0), 1, 4
        else:
            self.rates = (6, 24, 54)
            self.sinrs = tuple(float(s) for s in range(-2, 31, 2))
            n_seeds, self.n_packets = 2, 50
        self.channel_seeds = [_derived_seed(seed, 1000 + k) for k in range(n_seeds)]
        self.payload_octets = 256
        self._point_s: List[float] = []
        self._point_raw_s = 0.0
        self.clock = WallClock()
        self._n_stores = 0

    def setup(self) -> None:
        from repro import kernels
        from repro.engine import run_sweep
        from repro.engine.store import ResultStore
        from repro.experiments.common import init_phy_worker
        from repro.phy.surrogate import _prr_trial

        self._run_sweep, self._store_cls = run_sweep, ResultStore
        self._init, self._prr_trial = init_phy_worker, _prr_trial
        kernels.warmup()
        self.params = [
            {
                "position": self.POSITION,
                "snr_db": snr,
                "rate_mbps": rate,
                "n_packets": self.n_packets,
                "payload_octets": self.payload_octets,
                "channel_seed": cs,
            }
            for rate in self.rates for snr in self.sinrs for cs in self.channel_seeds
        ]
        self._fixture = self._new_store()

    def _new_store(self):
        self._n_stores += 1
        root = self.build_dir / f"store-{self._n_stores}"
        shutil.rmtree(root, ignore_errors=True)
        return self._store_cls(root)

    def trial(self, spec) -> float:
        """Engine trial: ``measure_prr_point`` with its wall time recorded."""
        t0 = perf_counter()
        prr = self._prr_trial(spec)
        dt = perf_counter() - t0
        self._point_raw_s += dt
        self._point_s.append(self.clock.scale(dt))
        return prr

    def _sweep(self, store):
        """One ``run_sweep`` over the grid; (results, seconds, point times).

        The seconds are the sweep's wall time less calibration, with the
        points and the engine time between them each scaled by the clock.
        """
        self._point_s, self._point_raw_s = [], 0.0
        calibrating = self.clock.calibrating_s
        t0 = perf_counter()
        results = self._run_sweep(
            self.params, self.trial, seed=self.seed, workers=0,
            init=self._init, label="perfbench.prr", store=store,
        )
        wall = perf_counter() - t0 - (self.clock.calibrating_s - calibrating)
        engine_s = self.clock.scale(wall - self._point_raw_s)
        return results, sum(self._point_s) + engine_s, self._point_s

    def _checked_sweep(self, out: Outcome, tracing=None):
        """Cold sweep into a fresh store, then its warm replay, both checked.

        ``tracing`` (an :func:`instrument` context) covers the cold sweep
        only.  Returns (cold results, cold wall, point times, warm wall,
        warm-replay hits, layer sink or None).
        """
        store = self._fixture if self._fixture is not None else self._new_store()
        self._fixture = None
        try:
            with tracing or contextlib.nullcontext() as sink:
                cold, wall, points = self._sweep(store)
            n = len(cold)
            out.attempted += n
            if store.hits:
                out.fail(f"cold sweep found {store.hits} entries in a fresh store", n)
            hits_before = store.hits
            warm, warm_wall, _ = self._sweep(store)
            warm_hits = store.hits - hits_before
        finally:
            shutil.rmtree(store.root, ignore_errors=True)
        for i, (a, b) in enumerate(zip(cold, warm)):
            k = a * self.n_packets
            if not (0.0 <= a <= 1.0 and abs(k - round(k)) < 1e-9):
                out.fail(f"point {i}: PRR {a!r} is not a packet fraction")
            elif np.float64(a).tobytes() != np.float64(b).tobytes():
                out.fail(f"point {i}: warm replay {b!r} != cold {a!r}")
        return cold, wall, points, warm_wall, warm_hits, sink

    def _looped_prr(self, params: Dict) -> float:
        """PRR of one point through looped ``Receiver.receive`` (the oracle).

        Mirrors ``measure_operating_point`` without control bits: the same
        channel draws, the same per-packet energy-detector erasures, but
        one packet at a time instead of the stacked batch path.
        """
        from repro.channel import IndoorChannel
        from repro.cos.energy import EnergyDetector
        from repro.cos.silence import DEFAULT_CONTROL_SUBCARRIERS
        from repro.phy.frames import build_mpdu
        from repro.phy.modulation import get_modulation
        from repro.phy.params import RATE_TABLE
        from repro.phy.receiver import Receiver
        from repro.phy.transmitter import Transmitter

        channel = IndoorChannel.position(
            params["position"], snr_db=params["snr_db"], seed=params["channel_seed"]
        )
        rate = RATE_TABLE[params["rate_mbps"]]
        modulation = get_modulation(rate.modulation)
        tx, rx, detector = Transmitter(), Receiver(), EnergyDetector()
        psdu = build_mpdu(bytes(params["payload_octets"]))
        waves = []
        for _ in range(params["n_packets"]):
            waves.append(channel.transmit(tx.transmit(psdu, rate).waveform))
            channel.evolve(1e-3)
        ok = 0
        for wave in waves:
            obs = rx.observe(wave)
            mask = None
            if obs is not None and obs.signal is not None:
                mask = detector.detect(
                    obs.raw_data_grid, list(DEFAULT_CONTROL_SUBCARRIERS),
                    obs.noise_var, h_gains=np.abs(obs.h_data) ** 2,
                    min_symbol_energy=modulation.min_symbol_energy,
                ).mask
            ok += bool(rx.receive(wave, mask).ok)
        return ok / params["n_packets"]

    def _check_looped(self, out: Outcome, results: Sequence[float]) -> None:
        """Batch == looped on one point drawn from the seed (a partial one if any)."""
        partial = [i for i, p in enumerate(results) if 0.0 < p < 1.0]
        pool = partial or list(range(len(results)))
        i = pool[int(np.random.default_rng(self.seed).integers(len(pool)))]
        looped = self._looped_prr(self.params[i])
        if looped != results[i]:
            out.fail(f"point {i}: looped receive PRR {looped} != batched {results[i]}")

    def measure(self, seconds: float, clock) -> Outcome:
        self.clock = clock
        out, digest = Outcome(), hashlib.sha256()
        t0 = perf_counter()
        last = 0.0
        # Whole sweeps only: another one starts if it fits in ``seconds``.
        while not out.work or perf_counter() - t0 + last <= seconds:
            ts = perf_counter()
            cold, sweep_s, points, *_ = self._checked_sweep(out)
            last = perf_counter() - ts
            if not out.work:
                self._check_looped(out, cold)
                digest.update(np.asarray(cold, dtype=np.float64).tobytes())
            out.work += len(cold) * self.n_packets
            out.work_s += sweep_s
            out.steps_s.extend(points)
        out.digest = digest.hexdigest()
        return out

    def traced(self) -> Outcome:
        ref = Outcome()
        ref_cold, wall_u, *_ = self._checked_sweep(ref)
        out = Outcome()
        cold, wall_t, _, warm_wall, warm_hits, sink = self._checked_sweep(
            out, instrument())
        out.absorb(ref)
        if np.asarray(cold).tobytes() != np.asarray(ref_cold).tobytes():
            out.fail("traced sweep differs from untraced one", len(cold))
        out.digest = hashlib.sha256(np.asarray(cold, dtype=np.float64).tobytes()).hexdigest()
        n, n_packets = len(cold), len(cold) * self.n_packets
        crc_ok = int(round(sum(cold) * self.n_packets))
        extras = {
            "phy.rx.crc_ok_ratio": Extra(crc_ok / n_packets, n_packets),
            "engine.run_sweep.overhead_ms": Extra(
                (wall_t - sink.total("engine.trial")) * 1e3 / n, n),
            "engine.store.warm_replay_ms": Extra(warm_wall * 1e3, n),
            "engine.store.hit_ratio": Extra(warm_hits / n, n),
            "trace.overhead_frac": Extra(wall_t / wall_u - 1.0, 1),
        }
        out.layers = layer_metrics(self.name, sink, n, extras)
        return out


# ---------------------------------------------------------------------------
# net-grid / net-cell
# ---------------------------------------------------------------------------


def _net_summary(result) -> Dict:
    """Everything a run's determinism check compares (exact values)."""
    return {
        "n_events": result.n_events,
        "elapsed_us": result.elapsed_us,
        "goodput_mbps": result.aggregate_goodput_mbps,
        "airtime_us": sorted(result.airtime_us.items()),
        "nodes": [
            [name, s.data_generated, s.data_attempts, s.data_rx_ok,
             s.data_delivered, s.data_dropped, s.failures,
             s.payload_bits_delivered, s.control_generated,
             s.control_delivered, sorted(s.loss_reasons.items())]
            for name, s in sorted(result.per_node.items())
        ],
    }


class NetBench:
    """A ``NetSimulator`` scenario run to its horizon, one simulated ms a step."""

    STEP_US = 1000.0

    def __init__(self, name: str, seed: int, smoke: bool, build_dir: Path) -> None:
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.sim_seed = _derived_seed(seed, 2000)
        self._reference: Optional[Dict] = None
        self._fixture = None

    def _spec(self):
        from repro.net import contention, enterprise_grid

        if self.name == "net-grid":
            spec = (enterprise_grid(n_aps=4, duration_us=20_000.0) if self.smoke
                    else enterprise_grid(n_aps=64, stations_per_ap=15,
                                         duration_us=100_000.0))
        else:
            spec = (contention(n_stations=4, n_packets=40, duration_us=50_000.0)
                    if self.smoke else
                    contention(n_stations=16, n_packets=300, duration_us=1_000_000.0))
        # The ratectl staircase: the legacy in-plane path's exact twin,
        # and the one that puts ratectl.select_rate on the path.
        return dataclasses.replace(spec, controller="snr-threshold")

    def setup(self) -> None:
        from repro import kernels
        from repro.net import NetLens, NetSimulator

        self._sim_cls, self._lens_cls = NetSimulator, NetLens
        kernels.warmup()
        self.spec = self._spec()
        self._fixture = NetSimulator(self.spec, rng=self.sim_seed)

    def _simulator(self, lens=None):
        sim = self._fixture or self._sim_cls(self.spec, rng=self.sim_seed, lens=lens)
        self._fixture = None
        return sim

    def _check(self, out: Outcome, result) -> str:
        summary = _net_summary(result)
        digest = hashlib.sha256(json.dumps(summary).encode()).hexdigest()
        for name, s in result.per_node.items():
            if s.data_delivered > s.data_generated:
                out.fail(f"{name}: {s.data_delivered} delivered > "
                         f"{s.data_generated} generated")
                break
        else:
            if self._reference is None:
                self._reference = summary
            elif summary != self._reference:
                out.fail("a second run of the same seed diverged")
        return digest

    def measure(self, seconds: float, clock) -> Outcome:
        out = Outcome()
        n_steps = int(round(self.spec.duration_us / self.STEP_US))
        t0 = perf_counter()
        # Two runs at least: the second is the determinism check.
        while out.attempted < 2 or perf_counter() - t0 < seconds:
            sim = self._simulator()
            out.attempted += 1
            steps = []
            try:
                for k in range(1, n_steps + 1):
                    ts = perf_counter()
                    sim.scheduler.run(until_us=k * self.STEP_US)
                    steps.append(clock.scale(perf_counter() - ts))
                ts = perf_counter()
                result = sim.run()  # drained already: assembles the result
                tail = clock.scale(perf_counter() - ts)
            except Exception as exc:  # noqa: BLE001 — counted as a failed op
                out.fail(f"run raised {type(exc).__name__}: {exc}")
                continue
            out.steps_s.extend(steps)
            out.work += result.n_events
            out.work_s += sum(steps) + tail
            out.digest = self._check(out, result)
        return out

    def traced(self) -> Outcome:
        ref = Outcome(attempted=1)
        sim = self._simulator()
        t0 = perf_counter()
        result = sim.run()
        wall_u = perf_counter() - t0
        self._check(ref, result)
        with instrument() as sink:
            lens = self._lens_cls(trace=False, ledger=False, profile=True)
            sim = self._simulator(lens=lens)
            t0 = perf_counter()
            result = sim.run()
            wall_t = perf_counter() - t0
        out = Outcome(attempted=1)
        # The lens never draws from the RNG: a traced run must replay the
        # untraced one exactly, or _check counts it failed.
        out.digest = self._check(out, result)
        by_type = lens.profile_dict()["by_type"]
        nodes = result.per_node.values()
        attempts = sum(s.data_attempts for s in nodes)
        generated = sum(s.control_generated for s in nodes)

        def profiled(qualname: str) -> Extra:
            entry = by_type.get(qualname, {"mean_us": 0.0, "count": 0})
            return Extra(entry["mean_us"], entry["count"])

        extras = {
            "net.scheduler.events": Extra(result.n_events, result.n_events),
            "net.medium.end.us": profiled("Medium._end"),
            "net.medium.collisions": Extra(
                sum(s.loss_reasons.get("collision", 0) for s in nodes),
                sink.n("net.sinr.decide")),
            "net.mac.countdown_done.us": profiled("NodeMac._countdown_done"),
            "net.mac.send_ack.us": profiled("NodeMac._send_ack"),
            "net.mac.delivery_ratio": Extra(
                sum(s.data_rx_ok for s in nodes) / attempts if attempts else 0.0,
                attempts),
            "net.control.delivered_ratio": Extra(
                sum(s.control_delivered for s in nodes) / generated
                if generated else 0.0, generated),
            "trace.overhead_frac": Extra(wall_t / wall_u - 1.0, 1),
        }
        out.layers = layer_metrics(self.name, sink, 1, extras)
        out.absorb(ref)
        return out



def make(name: str, seed: int, smoke: bool, build_dir: Path):
    """The workload ``name``; ``build_dir`` is this process's scratch directory."""
    if name == "cos-link":
        return CosLinkBench(seed, smoke, build_dir)
    if name == "prr-sweep":
        return PrrSweepBench(seed, smoke, build_dir)
    return NetBench(name, seed, smoke, build_dir)
