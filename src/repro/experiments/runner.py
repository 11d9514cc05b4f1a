"""Run every figure harness in sequence and print the paper-style tables.

Usage::

    python -m repro.experiments.runner                    # quick, serial
    python -m repro.experiments.runner --workers 4        # process pool
    python -m repro.experiments.runner fig2 fig9          # subset
    REPRO_FULL=1 python -m repro.experiments.runner       # paper-scale
    REPRO_WORKERS=4 python -m repro.experiments.runner    # pool via env

Stage timing comes from the ``experiment.<stage>`` spans themselves
(:func:`repro.obs.trace.timed_span`): when tracing is enabled the stage
timings land in the JSONL trace and the ``repro_span_seconds``
histograms exactly as logged — there is no second, hand-rolled
``perf_counter`` path to drift out of sync.  Diagnostics go through the
``repro.experiments.runner`` logger — ``repro --log-level``/``--quiet``
control them; the result tables themselves always print to stdout.

``--workers N`` (default: the ``REPRO_WORKERS`` environment flag, else
serial) is forwarded to every stage's ``run(workers=...)``; trial
results are bit-for-bit identical either way (see ``docs/engine.md``).
"""

from __future__ import annotations

import argparse
import logging
import sys
from typing import List, Optional

from repro.engine import resolve_workers
from repro.experiments import ablations, fig2, fig3, fig5, fig6, fig7, fig9, fig10, network, waterfall
from repro.obs.trace import timed_span

log = logging.getLogger("repro.experiments.runner")


def _stages(network_kwargs=None):
    network_kwargs = network_kwargs or {}
    return [
        ("fig2", lambda w: fig2.print_result(fig2.run(workers=w))),
        ("fig3", lambda w: fig3.print_result(fig3.run(workers=w))),
        ("fig5", lambda w: fig5.print_result(fig5.run(workers=w))),
        ("fig6", lambda w: fig6.print_result(fig6.run(workers=w))),
        ("fig7", lambda w: fig7.print_result(fig7.run(workers=w))),
        ("fig9", lambda w: fig9.print_result(fig9.run(workers=w))),
        ("fig10", lambda w: fig10.print_result(fig10.run(workers=w))),
        ("ablations", lambda w: (
            ablations.print_placement(ablations.run_placement(workers=w)),
            ablations.print_evd(ablations.run_evd(workers=w)),
        )),
        ("network", lambda w: network.print_result(
            network.run(workers=w, **network_kwargs))),
        ("waterfall", lambda w: waterfall.print_result(waterfall.run(workers=w))),
    ]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.runner",
        description="run the figure harnesses and print the paper-style tables",
    )
    parser.add_argument(
        "stages", nargs="*", metavar="stage",
        help="subset to run, e.g. fig2 fig9 ablations (default: all)",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="trial worker processes (0 = serial; "
             "default: REPRO_WORKERS or serial)",
    )
    net = parser.add_argument_group("network stage")
    net.add_argument("--payload-octets", type=int, default=1024, metavar="B",
                     help="data payload per frame in the network stage")
    net.add_argument("--data-rate-mbps", type=int, default=24, metavar="R",
                     help="802.11a data rate in the network stage")
    net.add_argument("--packets-per-station", type=int, default=50, metavar="P",
                     help="frames each station offers in the network stage")
    net.add_argument("--network-backend", choices=["fast", "net"],
                     default="fast",
                     help="contention model: slotted single-domain DCF "
                          "(fast) or the spatial SINR simulator (net)")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv if argv is not None else sys.argv[1:])
    only = set(args.stages)
    workers = args.workers  # None defers to REPRO_WORKERS inside the engine

    stages = _stages(network_kwargs={
        "payload_octets": args.payload_octets,
        "data_rate_mbps": args.data_rate_mbps,
        "packets_per_station": args.packets_per_station,
        "backend": args.network_backend,
    })
    unknown = only - {name for name, _ in stages}
    if unknown:
        log.warning("unknown stage(s) requested: %s", ", ".join(sorted(unknown)))
    log.info("trial engine: %s",
             "serial" if resolve_workers(workers) == 0
             else f"{resolve_workers(workers)} workers")
    for name, stage in stages:
        if only and name not in only:
            continue
        log.info("stage %s starting", name)
        with timed_span(f"experiment.{name}") as sp:
            stage(workers)
        log.info("stage %s done in %.1fs", name, sp.duration_s)
    return 0


if __name__ == "__main__":
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    raise SystemExit(main())
