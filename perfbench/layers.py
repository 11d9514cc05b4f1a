"""Per-layer instrumentation for the traced benchmark run.

The traced run switches on the program's own spans (:mod:`repro.obs.trace`)
and, for the network workloads, the ``NetLens`` dispatch profiler.  Layers
without a span of their own are timed from outside: :func:`instrument`
replaces each public entry point listed in :data:`WRAPPED` with a wrapper
that opens a span of the same tracer, so program spans and wrapper spans
form one tree.

:class:`LayerSink` folds that tree while it streams (a million
``sensed_power_mw`` calls must not become a million stored records).  A
span named in :data:`BOUNDARIES` is a layer boundary; its *self* time is its
duration minus the time covered by boundary spans below it.  Spans that
are not boundaries (``cos.tx.plan``, ``cos.rx.recover``, ...) stay part of
the nearest boundary above them.

:data:`PER_LAYER` is the metric table: name, unit, the workloads on which
the layer does work (the coverage guard requires at least one recorded call
there), and how the value is derived.  Unit conventions:

* ``ms`` — milliseconds in that layer per workload operation (one exchange
  on ``cos-link``, one sweep point on ``prr-sweep``), comparable with the
  end-to-end ``step_ms_p50``; ``engine.store.warm_replay_ms`` is the whole
  warm replay;
* ``us`` — mean microseconds per call;
* ``s`` — total seconds; ``count`` / ``B`` — exact totals; ``ratio`` — a
  fraction of attempts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.obs import trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.sink import Sink

PHY = ("cos-link", "prr-sweep")
LINK = ("cos-link",)
SWEEP = ("prr-sweep",)
NET = ("net-grid", "net-cell")

#: (module, class or None, attribute, span name) of every entry point the
#: benchmark times from outside.  ``crc32`` is patched in ``repro.utils.crc``,
#: the namespace ``append_fcs``/``check_fcs`` resolve it in — the
#: ``repro.utils`` re-export is a stale binding nothing on the PHY path calls.
WRAPPED: Tuple[Tuple[str, Optional[str], str, str], ...] = (
    ("repro.phy.transmitter", "Transmitter", "transmit", "phy.tx.transmit"),
    ("repro.phy.modulation", "Modulation", "demap_soft", "phy.demap_soft"),
    ("repro.phy.modulation", "Modulation", "demap_hard", "phy.demap_hard"),
    ("repro.utils.crc", None, "crc32", "utils.crc32"),
    ("repro.cos.link", None, "measure_operating_point",
     "cos.measure_operating_point"),
    ("repro.engine.store", "ResultStore", "key_for", "engine.store.key_for"),
    ("repro.engine.store", "ResultStore", "get", "engine.store.get"),
    ("repro.engine.store", "ResultStore", "put", "engine.store.put"),
    ("repro.net.medium", "Medium", "begin", "net.medium.begin"),
    ("repro.net.medium", "Medium", "sensed_power_mw", "net.medium.sensed_power"),
    ("repro.net.medium", "Medium", "locally_busy", "net.medium.locally_busy"),
    ("repro.net.mac", "NodeMac", "on_channel_state", "net.mac.on_channel_state"),
    ("repro.net.sinr", "ReceptionModel", "decide", "net.sinr.decide"),
    ("repro.net.control", "ControlPlane", "rate_for", "net.control.rate_for"),
    ("repro.net.control", "ControlPlane", "on_frame_received",
     "net.control.on_frame_received"),
    ("repro.ratectl.snr", "SnrThresholdController", "select_rate",
     "ratectl.select_rate"),
)

#: Span names whose time is a layer of its own (program spans + wrappers).
BOUNDARIES = frozenset({
    "channel.transmit", "channel.evolve",
    "cos.tx.build", "cos.rx.receive", "cos.energy.detect", "cos.rx.evm",
    "phy.rx.observe", "phy.rx.observe_many",
    "phy.rx.decode", "phy.rx.decode_many",
    "phy.viterbi", "phy.viterbi.batch",
    "engine.trial", "net.scenario",
} | {w[3] for w in WRAPPED})


class LayerSink(Sink):
    """Streams span records into per-name calls / total / self seconds."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.bytes: Dict[str, int] = {}
        # open span id -> seconds covered by boundary spans beneath it
        self._covered: Dict[int, float] = {}

    def emit(self, event: Dict) -> None:
        if event.get("type") != "span":
            return
        name = event["name"]
        dur = event["dur_s"]
        covered = self._covered.pop(event["id"], 0.0)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if name in BOUNDARIES:
            self.self_s[name] = self.self_s.get(name, 0.0) + dur - covered
            up = dur
        else:
            up = covered
        parent = event["parent"]
        if parent is not None and up:
            self._covered[parent] = self._covered.get(parent, 0.0) + up

    def add_bytes(self, name: str, n: int) -> None:
        self.bytes[name] = self.bytes.get(name, 0) + n

    # -- sums over several span names ------------------------------------

    def n(self, *names: str) -> int:
        return sum(self.calls.get(x, 0) for x in names)

    def total(self, *names: str) -> float:
        return sum(self.total_s.get(x, 0.0) for x in names)

    def self_time(self, *names: str) -> float:
        return sum(self.self_s.get(x, 0.0) for x in names)


def _wrapper(fn: Callable, name: str, sink: LayerSink) -> Callable:
    span = trace.span
    if name == "utils.crc32":
        @functools.wraps(fn)
        def counted(data, *args, **kwargs):
            sink.add_bytes(name, len(data))
            with span(name):
                return fn(data, *args, **kwargs)
        return counted

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        with span(name):
            return fn(*args, **kwargs)
    return timed


@contextlib.contextmanager
def instrument() -> Iterator[LayerSink]:
    """Trace into a fresh :class:`LayerSink` with every wrapper installed.

    Wrappers go on before the caller builds its fixture (scheduled
    callbacks bind methods when scheduled) and come off on exit, as does
    the tracer, so an untraced run afterwards is untouched.
    """
    sink = LayerSink()
    patched: List[Tuple[object, str, object]] = []
    try:
        for module_name, cls_name, attr, name in WRAPPED:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name)
            original = vars(owner)[attr]
            patched.append((owner, attr, original))
            setattr(owner, attr, _wrapper(original, name, sink))
        # A private registry: span histograms must not leak into the
        # program's default registry between runs.
        trace.enable(sink=sink, registry=MetricsRegistry())
        yield sink
    finally:
        trace.disable()
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


class Layer(NamedTuple):
    """One per-layer metric: how to read it and where it must show work."""

    name: str
    unit: str
    workloads: Tuple[str, ...]
    spans: Tuple[str, ...]  # coverage: calls summed over these spans
    kind: str  # total_ms / self_ms / calls / mean_us / bytes / extra


def _L(name, unit, workloads, spans=(), kind="extra"):
    return Layer(name, unit, tuple(workloads), tuple(spans), kind)


PER_LAYER: Tuple[Layer, ...] = (
    _L("channel.transmit.ms", "ms", PHY, ("channel.transmit",), "total_ms"),
    _L("channel.evolve.ms", "ms", PHY, ("channel.evolve",), "total_ms"),
    _L("phy.tx.transmit.ms", "ms", PHY, ("phy.tx.transmit",), "total_ms"),
    _L("cos.tx.build.self_ms", "ms", LINK, ("cos.tx.build",), "self_ms"),
    _L("phy.rx.observe.ms", "ms", PHY,
       ("phy.rx.observe", "phy.rx.observe_many"), "total_ms"),
    _L("phy.rx.decode.self_ms", "ms", PHY,
       ("phy.rx.decode", "phy.rx.decode_many"), "self_ms"),
    _L("phy.demap_soft.ms", "ms", PHY, ("phy.demap_soft",), "total_ms"),
    _L("phy.demap_hard.ms", "ms", PHY, ("phy.demap_hard",), "total_ms"),
    _L("phy.demap_soft.calls", "count", PHY, ("phy.demap_soft",), "calls"),
    _L("phy.viterbi.ms", "ms", PHY, ("phy.viterbi", "phy.viterbi.batch"),
       "total_ms"),
    _L("phy.viterbi.calls", "count", PHY, ("phy.viterbi", "phy.viterbi.batch"),
       "calls"),
    _L("utils.crc32.ms", "ms", PHY, ("utils.crc32",), "total_ms"),
    _L("utils.crc32.calls", "count", PHY, ("utils.crc32",), "calls"),
    _L("utils.crc32.bytes", "B", PHY, ("utils.crc32",), "bytes"),
    _L("cos.rx.receive.self_ms", "ms", LINK, ("cos.rx.receive",), "self_ms"),
    _L("cos.energy.detect.ms", "ms", LINK, ("cos.energy.detect",), "total_ms"),
    _L("cos.rx.evm.ms", "ms", LINK, ("cos.rx.evm",), "total_ms"),
    _L("phy.rx.crc_ok_ratio", "ratio", PHY),
    _L("cos.rx.control_ok_ratio", "ratio", LINK),
    _L("cos.measure_operating_point.ms", "ms", SWEEP,
       ("cos.measure_operating_point",), "total_ms"),
    _L("engine.run_sweep.overhead_ms", "ms", SWEEP),
    _L("engine.store.key_for.ms", "ms", SWEEP, ("engine.store.key_for",),
       "total_ms"),
    _L("engine.store.get.ms", "ms", SWEEP, ("engine.store.get",), "total_ms"),
    _L("engine.store.put.ms", "ms", SWEEP, ("engine.store.put",), "total_ms"),
    _L("engine.store.warm_replay_ms", "ms", SWEEP),
    _L("engine.store.hit_ratio", "ratio", SWEEP),
    _L("net.scheduler.events", "count", NET),
    _L("net.scheduler.run.s", "s", NET, ("net.scenario",), "total_s"),
    _L("net.medium.begin.us", "us", NET, ("net.medium.begin",), "mean_us"),
    _L("net.medium.end.us", "us", NET),
    _L("net.medium.sensed_power.calls", "count", NET,
       ("net.medium.sensed_power",), "calls"),
    _L("net.medium.sensed_power.us", "us", NET, ("net.medium.sensed_power",),
       "mean_us"),
    _L("net.medium.locally_busy.calls", "count", NET,
       ("net.medium.locally_busy",), "calls"),
    _L("net.medium.collisions", "count", NET),
    _L("net.mac.on_channel_state.calls", "count", NET,
       ("net.mac.on_channel_state",), "calls"),
    _L("net.mac.on_channel_state.us", "us", NET, ("net.mac.on_channel_state",),
       "mean_us"),
    _L("net.mac.countdown_done.us", "us", NET),
    _L("net.mac.send_ack.us", "us", NET),
    _L("net.mac.delivery_ratio", "ratio", NET),
    _L("net.sinr.decide.us", "us", NET, ("net.sinr.decide",), "mean_us"),
    _L("net.control.rate_for.us", "us", NET, ("net.control.rate_for",),
       "mean_us"),
    _L("net.control.on_frame_received.us", "us", NET,
       ("net.control.on_frame_received",), "mean_us"),
    _L("ratectl.select_rate.us", "us", NET, ("ratectl.select_rate",), "mean_us"),
    _L("net.control.delivered_ratio", "ratio", NET),
    _L("trace.overhead_frac", "ratio", PHY + NET),
)


class CoverageError(RuntimeError):
    """A layer recorded no work on a workload where it must."""


class Extra(NamedTuple):
    """A per-layer value the workload measured itself, with its base."""

    value: float
    calls: int  # the count the value rests on (coverage)


def layer_metrics(workload: str, sink: LayerSink, n_ops: int,
                  extras: Dict[str, Extra]) -> Dict[str, Dict]:
    """Every :data:`PER_LAYER` metric for ``workload``, coverage-checked.

    Metrics of layers the workload never enters read 0.  A layer listed
    as working on ``workload`` with zero recorded calls raises
    :class:`CoverageError`; so does an extra missing there.
    """
    out: Dict[str, Dict] = {}
    missing: List[str] = []
    per_op = 1e3 / max(n_ops, 1)
    for layer in PER_LAYER:
        if layer.kind == "extra":
            extra = extras.get(layer.name)
            value, calls = (extra.value, extra.calls) if extra else (0.0, 0)
        else:
            calls = sink.n(*layer.spans)
            if layer.kind == "total_ms":
                value = sink.total(*layer.spans) * per_op
            elif layer.kind == "self_ms":
                value = sink.self_time(*layer.spans) * per_op
            elif layer.kind == "total_s":
                value = sink.total(*layer.spans)
            elif layer.kind == "mean_us":
                value = sink.total(*layer.spans) * 1e6 / calls if calls else 0.0
            elif layer.kind == "calls":
                value = calls
            elif layer.kind == "bytes":
                value = sum(sink.bytes.get(x, 0) for x in layer.spans)
            else:  # pragma: no cover — table typo
                raise ValueError(f"unknown layer kind {layer.kind!r}")
        if workload in layer.workloads and calls < 1:
            missing.append(layer.name)
        out[layer.name] = {"value": value, "unit": layer.unit}
    if missing:
        raise CoverageError(
            f"{workload}: no recorded work for {', '.join(missing)} — a "
            "wrapper on a stale binding, or the layer left the path"
        )
    return out
