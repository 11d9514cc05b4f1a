"""The shared wireless medium: who is on the air, who senses it, who decodes.

The medium tracks the set of in-flight transmissions.  From it fall out
the three physical facts the MAC layer consumes:

* **Carrier sense** — a node's sensed power is the linear sum of every
  other active source's received power at its position; the node is
  *locally busy* when that sum clears the carrier-sense threshold.
  Because the sum is position-dependent, two stations can each be busy
  to the AP yet idle to each other: the hidden-node pathology needs no
  special-casing.
* **Interference accounting** — every transmission accumulates, worst
  case over its whole airtime, the received power of every other source
  that overlapped it at its destination.  SINR at reception time is
  ``signal / (noise + accumulated interference)``.
* **Reception** — decided at frame end by the
  :class:`~repro.net.sinr.ReceptionModel` (capture gate + rate-dependent
  error draw).  A destination that itself transmitted during the frame
  loses it outright (half-duplex).

Interferer bursts are ordinary :class:`Transmission` records with
``dst=None`` — they deposit sensed power and interference but are never
received.  Beacons are ``dst=None`` too, but additionally fan out to
every listener that receives them above the carrier-sense threshold
(deterministic energy-gate decode — no RNG draw, so legacy scenarios'
random streams are untouched).

Two operating modes (``mode=``):

* ``"culled"`` (default) — each static source's received power at every
  *relevant* listener (grid-indexed neighbourhood, see
  :meth:`~repro.net.topology.Topology.neighbors_of`, with contributions
  below ``RadioSpec.interference_floor_dbm`` dropped) is computed once,
  on the source's first transmission, and memoised as a frozen
  ``{listener: mW}`` map that every later transmission of that source
  shares.  A per-listener index holds, in activation order, the active
  transmissions whose map reaches that listener.  Carrier-sense sums,
  interference accumulation and carrier-state fan-out then visit only
  those candidates instead of every transmission on the air.  A skipped
  transmission would have added exactly ``0.0``, and the candidates are
  summed in the same order as the full active list, so every sum is
  bit-for-bit the one a full scan computes.  With
  ``interference_floor_dbm = -inf`` the relevant set is every node,
  making culled mode bit-for-bit identical to the dense path.
* ``"dense-exact"`` — all-pairs semantics, recomputing every power from
  the topology at query time.  The equivalence oracle for tests.  Pairs
  touching a *mobile* node are excluded from the frozen maps and
  recomputed fresh at every query in culled mode too: a mobile listener
  takes every active transmission as a candidate, and mobile-source
  transmissions join every listener's candidates by activation order.
  The two modes therefore agree bit-for-bit even while nodes are moving.

Per-node channels: ``set_channel`` assigns a node to a channel index;
cross-channel power is attenuated ``adjacent_rejection_db`` per channel
step in both sensing and interference.  All nodes default to channel 0,
which keeps single-BSS scenarios exactly on the legacy numbers.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Dict, List, Optional, Protocol, Sequence

import numpy as np

from repro.net.scheduler import EventScheduler
from repro.net.sinr import ReceptionModel, dbm_to_mw, mw_to_dbm
from repro.net.topology import Topology

__all__ = ["Transmission", "Medium", "MEDIUM_MODES"]

MEDIUM_MODES = ("culled", "dense-exact")

_SEQ = attrgetter("seq")


class Transmission:
    """One frame (or interference burst) on the air."""

    __slots__ = (
        "src", "dst", "kind", "rate_mbps", "duration_us", "payload_bits",
        "frame", "acks", "start_us", "end_us", "signal_dbm",
        "interference_mw", "rx_busy", "contrib", "seq",
    )

    def __init__(
        self,
        src: str,
        dst: Optional[str],
        kind: str,
        rate_mbps: int,
        duration_us: float,
        payload_bits: int = 0,
        frame=None,
        acks=None,
    ) -> None:
        self.src = src
        self.dst = dst
        self.kind = kind
        self.rate_mbps = rate_mbps
        self.duration_us = float(duration_us)
        self.payload_bits = payload_bits
        self.frame = frame  # this transmission's own NetFrame (CoS carrier)
        self.acks = acks  # for ACKs: the data NetFrame being acknowledged
        self.start_us = 0.0
        self.end_us = 0.0
        self.signal_dbm = 0.0
        self.interference_mw = 0.0
        self.rx_busy = False
        #: Culled mode: {listener -> rx power mW}, the source's memoised
        #: map (static pairs only — mobile pairs are recomputed per query).
        self.contrib: Optional[Dict[str, float]] = None
        self.seq = 0  # activation sequence number, set by Medium.begin

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Transmission {self.kind} {self.src}->{self.dst} "
                f"[{self.start_us:.1f},{self.end_us:.1f}]us>")


class MacListener(Protocol):  # pragma: no cover - typing only
    name: str

    def on_channel_state(self, busy: bool) -> None: ...
    def on_tx_end(self, tx: Transmission) -> None: ...
    def on_receive(self, tx: Transmission, ok: bool, sinr_db: float,
                   reason: str) -> None: ...
    def on_beacon(self, ap: str, rssi_dbm: float, channel: int) -> None: ...


class Medium:
    """Active-transmission set + carrier-sense fan-out + SINR receptions."""

    def __init__(
        self,
        topology: Topology,
        scheduler: EventScheduler,
        reception: ReceptionModel,
        rng: np.random.Generator,
        on_outcome: Optional[Callable[[Transmission, bool, float, str], None]] = None,
        lens=None,
        mode: str = "culled",
    ) -> None:
        if mode not in MEDIUM_MODES:
            raise ValueError(f"unknown medium mode {mode!r}")
        self.topology = topology
        self.scheduler = scheduler
        self.reception = reception
        self.rng = rng
        self.on_outcome = on_outcome
        self.lens = lens  # optional repro.net.lens.NetLens (None = free)
        self.mode = mode
        self._culled = mode == "culled"
        self._floor_dbm = topology.radio.interference_floor_dbm
        #: Nodes that are (ever) mobile: their pairwise powers change
        #: over time, so they are never frozen into contribution maps.
        #: Snapshotted at init — a walker pinned mid-run by
        #: ``Topology.invalidate`` keeps its fresh-compute treatment for
        #: consistency across the whole run.
        self._mobile = frozenset(
            n for n in topology.names if topology.is_mobile(n)
        )
        self._macs: Dict[str, MacListener] = {}
        self._mac_order: Dict[str, int] = {}  # registration index
        self._busy: Dict[str, bool] = {}
        #: Per-node channel index (absent = 0); see :meth:`set_channel`.
        self.channel: Dict[str, int] = {}
        self._tx_count: Dict[str, int] = {}  # node -> its in-flight count
        self._active: List[Transmission] = []
        self._seq = 0
        # Culled-mode structures (see the module docstring).
        #: Static source -> its frozen {listener: mW} map, filled lazily.
        self._memo: Dict[str, Dict[str, float]] = {}
        #: Listener -> active static-source transmissions reaching it,
        #: in activation order.
        self._heard: Dict[str, List[Transmission]] = {}
        #: Active mobile-source transmissions, in activation order.
        self._moving: List[Transmission] = []
        #: Destination -> its active addressed transmissions.
        self._inbound: Dict[str, List[Transmission]] = {}
        #: Airtime by kind (data / control / ack / beacon / interference), µs.
        self.airtime_us: Dict[str, float] = {}

    def register(self, mac: MacListener) -> None:
        if mac.name in self._macs:
            raise ValueError(f"duplicate MAC for node {mac.name!r}")
        self._mac_order[mac.name] = len(self._macs)
        self._macs[mac.name] = mac
        self._busy[mac.name] = False

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------

    def set_channel(self, name: str, ch: int) -> None:
        """Assign ``name`` to channel ``ch`` (roaming / BSS setup).

        In culled mode every active transmission's contribution at this
        listener is recomputed under the new channel rejection (on a
        private copy of its map: the memoised one stays untouched), the
        listener's index entry is rebuilt, and its carrier state is
        re-evaluated — so a station that roams to a quieter channel goes
        locally idle immediately.  The change also drops the memo, since
        it alters every map the node takes part in; channel changes are
        rare (BSS setup, roams), and the memo refills lazily.
        """
        old = self.channel.get(name, 0)
        ch = int(ch)
        if ch == old:
            return
        self.channel[name] = ch
        self._memo.clear()
        if not self._active:
            return
        if self._culled:
            if name not in self._mobile:
                floor = self._floor_dbm
                for tx in self._active:
                    if tx.src == name or tx.src in self._mobile:
                        continue
                    p = self._rx_dbm(tx.src, name, self.scheduler.now_us)
                    contrib = tx.contrib = dict(tx.contrib)
                    contrib.pop(name, None)
                    if p >= floor:
                        contrib[name] = dbm_to_mw(p)
                self._heard[name] = [
                    tx for tx in self._active if name in tx.contrib
                ]
            if name in self._macs:
                self._update_carrier_states_for((name,))
        else:
            self._update_carrier_states()

    def invalidate(self, name: str) -> None:
        """Drop the memoised maps after ``name`` was re-pinned.

        The companion of :meth:`Topology.invalidate`: a node that moved
        changes every map it takes part in, so the memo is cleared and
        refills lazily.  Transmissions already on the air keep the
        powers frozen at their start.
        """
        self._memo.clear()

    def _rx_dbm(self, src: str, listener: str, t_us: float) -> float:
        """Channel-aware received power (adjacent-channel rejection)."""
        p = self.topology.rx_power_dbm(src, listener, t_us)
        channels = self.channel
        if channels:
            dc = abs(channels.get(src, 0) - channels.get(listener, 0))
            if dc:
                p -= dc * self.topology.radio.adjacent_rejection_db
        return p

    # ------------------------------------------------------------------
    # Sensing
    # ------------------------------------------------------------------

    def _pair_mw(self, tx: Transmission, listener: str, now: float) -> float:
        """Culled-mode power of ``tx`` at ``listener`` (mW, floor-culled).

        Static pairs come from the frozen contribution map; any pair
        touching a mobile node is recomputed at ``now`` — identical to
        what the dense path would produce.
        """
        if tx.src in self._mobile or listener in self._mobile:
            p = self._rx_dbm(tx.src, listener, now)
            return dbm_to_mw(p) if p >= self._floor_dbm else 0.0
        return tx.contrib.get(listener, 0.0)

    def _candidates(self, listener: str) -> Sequence[Transmission]:
        """Active transmissions that can reach ``listener``, in activation order.

        Every active transmission left out would contribute exactly
        ``0.0`` at ``listener`` (a static pair absent from the frozen
        map).  A mobile listener's candidates are all of them; mobile
        sources join a static listener's indexed ones by sequence number.
        """
        if listener in self._mobile:
            return self._active
        heard = self._heard.get(listener, ())
        if not self._moving:
            return heard
        return sorted([*heard, *self._moving], key=_SEQ)

    def sensed_power_mw(self, listener: str) -> float:
        """Aggregate power from every *other* active source at ``listener``."""
        total = 0.0
        if self._culled:
            now = self.scheduler.now_us
            for tx in self._candidates(listener):
                if tx.src == listener:
                    continue
                total += self._pair_mw(tx, listener, now)
        else:
            now = self.scheduler.now_us
            for tx in self._active:
                if tx.src == listener:
                    continue
                total += dbm_to_mw(self._rx_dbm(tx.src, listener, now))
        return total

    def locally_busy(self, listener: str) -> bool:
        """Carrier sense verdict at ``listener`` (excludes its own signal)."""
        return (
            mw_to_dbm(self.sensed_power_mw(listener))
            >= self.topology.radio.cs_threshold_dbm
        )

    # ------------------------------------------------------------------
    # Transmission lifecycle
    # ------------------------------------------------------------------

    def _contribution(self, src: str, now: float) -> Dict[str, float]:
        """Frozen {listener -> mW} map of ``src`` over its relevant set.

        Memoised per static source: a static pair's power never changes
        until :meth:`set_channel` or :meth:`invalidate` drops the memo.
        Mobile endpoints are excluded (see :meth:`_pair_mw`): a mobile
        source freezes nothing, and mobile listeners are left out of a
        static source's map.
        """
        if src in self._mobile:
            return {}
        contrib = self._memo.get(src)
        if contrib is not None:
            return contrib
        contrib = self._memo[src] = {}
        floor = self._floor_dbm
        macs = self._macs
        mobile = self._mobile
        for name in self.topology.neighbors_of(
            src, self.topology.relevance_range_m, now
        ):
            if (name == src or name not in macs or name in contrib
                    or name in mobile):
                continue
            p = self._rx_dbm(src, name, now)
            if p >= floor:
                contrib[name] = dbm_to_mw(p)
        return contrib

    def begin(self, tx: Transmission) -> None:
        """Put ``tx`` on the air; its end (and reception) is scheduled here."""
        now = self.scheduler.now_us
        tx.start_us = now
        tx.end_us = now + tx.duration_us
        if tx.dst is not None:
            tx.signal_dbm = self._rx_dbm(tx.src, tx.dst, now)
        if self._culled:
            self._couple_culled(tx, now)
        else:
            self._couple_dense(tx, now)

        tx.seq = self._seq
        self._seq += 1
        self._active.append(tx)
        self._tx_count[tx.src] = self._tx_count.get(tx.src, 0) + 1
        self.airtime_us[tx.kind] = self.airtime_us.get(tx.kind, 0.0) + tx.duration_us
        if self.lens is not None:
            self.lens.on_tx_start(tx, now)
        # Ends fire before same-instant starts (priority -1) so a frame
        # beginning exactly as another ends is not counted as overlap.
        self.scheduler.at(tx.end_us, self._end, tx, priority=-1)
        if self._culled:
            self._update_carrier_states_for(self._fanout_listeners(tx))
        else:
            self._update_carrier_states()

    def _couple_dense(self, tx: Transmission, now: float) -> None:
        """Cross-couple ``tx`` with everything already on the air."""
        for other in self._active:
            if other.dst is not None:
                if tx.src == other.dst:
                    other.rx_busy = True  # other's receiver just keyed up
                else:
                    other.interference_mw += dbm_to_mw(
                        self._rx_dbm(tx.src, other.dst, now)
                    )
        if tx.dst is not None:
            for other in self._active:
                if other.src == tx.dst:
                    tx.rx_busy = True  # destination is mid-transmission
                else:
                    tx.interference_mw += dbm_to_mw(
                        self._rx_dbm(other.src, tx.dst, now)
                    )

    def _couple_culled(self, tx: Transmission, now: float) -> None:
        """Cross-couple ``tx`` with the transmissions it can reach, then index it.

        Each accumulator receives the same :meth:`_pair_mw` terms, in the
        same order, as a scan of every active transmission would give
        it, minus exact zeros: ``tx``'s interference sums its
        destination's candidates in activation order, and each in-flight
        reception whose destination ``tx`` reaches gains one term.
        """
        src = tx.src
        dst = tx.dst
        mobile = self._mobile
        inbound = self._inbound
        if dst is not None:
            if self._tx_count.get(dst, 0):
                tx.rx_busy = True  # destination is mid-transmission
            for other in self._candidates(dst):
                if other.src != dst:
                    tx.interference_mw += self._pair_mw(other, dst, now)
        for other in inbound.get(src, ()):
            other.rx_busy = True  # other's receiver just keyed up

        contrib = tx.contrib = self._contribution(src, now)
        if src in mobile:
            self._moving.append(tx)
            reached = [d for d in inbound if d != src]
        else:
            heard = self._heard
            for name, mw in contrib.items():
                listeners = heard.get(name)
                if listeners is None:
                    heard[name] = [tx]
                else:
                    listeners.append(tx)
                for other in inbound.get(name, ()):
                    other.interference_mw += mw
            reached = [m for m in mobile if m in inbound]
        for name in reached:
            for other in inbound[name]:
                other.interference_mw += self._pair_mw(tx, name, now)
        if dst is not None:
            inbound.setdefault(dst, []).append(tx)

    def _end(self, tx: Transmission) -> None:
        self._active.remove(tx)
        self._tx_count[tx.src] -= 1
        if self._culled:
            heard = self._heard
            for name in tx.contrib:
                heard[name].remove(tx)
            if tx.src in self._mobile:
                self._moving.remove(tx)
            if tx.dst is not None:
                others = self._inbound[tx.dst]
                others.remove(tx)
                if not others:
                    del self._inbound[tx.dst]

        ok, sinr, reason = False, float("-inf"), "not_addressed"
        if tx.dst is not None:
            noise_mw = dbm_to_mw(self.topology.radio.noise_dbm)
            sinr = tx.signal_dbm - mw_to_dbm(noise_mw + tx.interference_mw)
            if tx.rx_busy:
                ok, reason = False, "rx_busy"
            else:
                ok, reason = self.reception.decide(sinr, tx.rate_mbps, self.rng)

        if self.lens is not None:
            self.lens.on_tx_end(tx, self.scheduler.now_us, ok, sinr, reason)
        sender = self._macs.get(tx.src)
        if sender is not None:
            sender.on_tx_end(tx)
        if tx.dst is not None:
            if self.on_outcome is not None:
                self.on_outcome(tx, ok, sinr, reason)
            receiver = self._macs.get(tx.dst)
            if receiver is not None:
                receiver.on_receive(tx, ok, sinr, reason)
        elif tx.kind == "beacon":
            self._deliver_beacon(tx)
        if self._culled:
            self._update_carrier_states_for(self._fanout_listeners(tx))
        else:
            self._update_carrier_states()

    def _deliver_beacon(self, tx: Transmission) -> None:
        """Fan a finished beacon out to every listener that can decode it.

        Decoding is a deterministic energy gate — *raw co-channel* RSSI
        at or above the carrier-sense threshold and the listener not
        itself mid-transmission.  Raw power (no adjacent-channel
        rejection) models the station-side scan: a station parked on
        one channel still learns the beacon levels of neighbouring
        cells, which is what makes cross-channel roaming decidable.  No
        RNG draw, so beacon traffic never perturbs the reception random
        stream of the data plane.  Both medium modes fan out over the
        same set: every MAC within the carrier-sense range.
        """
        topo = self.topology
        cs = topo.radio.cs_threshold_dbm
        ch = self.channel.get(tx.src, 0)
        tx_count = self._tx_count
        now = self.scheduler.now_us
        if self._culled:
            order = self._mac_order
            macs = self._macs
            names = [
                n for n in topo.neighbors_of(tx.src, topo.cs_range_m, now)
                if n in order and n != tx.src
            ]
            names.sort(key=order.__getitem__)
            seen = set()
            for name in names:
                if name in seen or tx_count.get(name, 0):
                    continue
                seen.add(name)
                rssi = topo.rx_power_dbm(tx.src, name, now)
                if rssi >= cs:
                    macs[name].on_beacon(tx.src, rssi, ch)
        else:
            for name, mac in self._macs.items():
                if name == tx.src or tx_count.get(name, 0):
                    continue
                rssi = topo.rx_power_dbm(tx.src, name, now)
                if rssi >= cs:
                    mac.on_beacon(tx.src, rssi, ch)

    # ------------------------------------------------------------------
    # Carrier-sense fan-out
    # ------------------------------------------------------------------

    def _ordered_listeners(self, contrib: Dict[str, float]) -> List[str]:
        """Contribution keys plus mobile MACs, in MAC-registration order.

        Mobile listeners are never in the frozen maps but their carrier
        state still depends on every transition, so they always join the
        fan-out.  Registration order matches the dense path's iteration
        exactly, so culled mode with an ``-inf`` floor replays the same
        carrier-flip sequence.
        """
        order = self._mac_order
        names = set(contrib)
        names.update(n for n in self._mobile if n in order)
        return sorted(names, key=order.__getitem__)

    def _fanout_listeners(self, tx: Transmission) -> List[str]:
        """Who to re-evaluate when ``tx`` keys up or ends (culled mode).

        A static source's set is its frozen contribution keys (plus the
        mobiles); a mobile source froze nothing, so its set is its
        *current* relevance neighbourhood — the same nodes the dense
        path would find affected.
        """
        if tx.src not in self._mobile:
            return self._ordered_listeners(tx.contrib)
        order = self._mac_order
        names = {
            n for n in self.topology.neighbors_of(
                tx.src, self.topology.relevance_range_m, self.scheduler.now_us
            )
            if n in order and n != tx.src
        }
        names.update(n for n in self._mobile if n in order and n != tx.src)
        return sorted(names, key=order.__getitem__)

    def _update_carrier_states_for(self, names) -> None:
        busy_map = self._busy
        for name in names:
            busy = self.locally_busy(name)
            if busy != busy_map[name]:
                busy_map[name] = busy
                if self.lens is not None:
                    self.lens.on_channel_state(name, busy, self.scheduler.now_us)
                self._macs[name].on_channel_state(busy)

    def _update_carrier_states(self) -> None:
        for name, mac in self._macs.items():
            busy = self.locally_busy(name)
            if busy != self._busy[name]:
                self._busy[name] = busy
                if self.lens is not None:
                    self.lens.on_channel_state(name, busy, self.scheduler.now_us)
                mac.on_channel_state(busy)
