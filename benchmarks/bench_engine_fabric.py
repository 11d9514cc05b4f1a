"""Result-store load test: warm-cache replay of a fig. 2 sweep.

Two entry points:

* ``pytest benchmarks/bench_engine_fabric.py`` — pytest-benchmark record
  of warm-cache replay latency on a fig2-style sweep.

* ``python benchmarks/bench_engine_fabric.py --out BENCH_engine_fabric.json``
  — the CI perf-smoke.  One hard gate, **warm_cache**: a repeated
  fig. 2 sweep served from the content-addressed result store must be
  at least ``--min-speedup`` (default 10×) faster than the cold run that
  populated it, with byte-identical results.

Resume after SIGKILL is a tier-1 test
(``tests/test_engine_store.py::TestKillResume``).  Exits non-zero if the
gate fails.
"""

from __future__ import annotations

import argparse
import json
import pickle
import platform
import sys
import tempfile
import time
from typing import Dict

from repro.engine.store import ResultStore, set_default_store

#: fig2 realizations per grid point — sized so one cold sweep costs
#: O(1 s): large enough that a >=10x warm-replay gate is far from timer
#: noise, small enough for CI.
FIG2_REALIZATIONS = 120

MIN_WARM_SPEEDUP = 10.0


def _fig2_sweep(realizations: int = FIG2_REALIZATIONS):
    from repro.experiments import fig2

    return fig2.run(realizations=realizations)


# ---------------------------------------------------------------------------
# Gates
# ---------------------------------------------------------------------------

def gate_warm_cache(min_speedup: float) -> Dict:
    with tempfile.TemporaryDirectory(prefix="fabric-store-") as d:
        store = ResultStore(d)
        set_default_store(store)
        try:
            t0 = time.perf_counter()
            cold_result = _fig2_sweep()
            cold_s = time.perf_counter() - t0
            t0 = time.perf_counter()
            warm_result = _fig2_sweep()
            warm_s = time.perf_counter() - t0
        finally:
            set_default_store(None)
    speedup = cold_s / warm_s if warm_s > 0 else float("inf")
    identical = pickle.dumps(cold_result) == pickle.dumps(warm_result)
    return {
        "name": "warm_cache",
        "metric": f"repeated fig2 sweep ({FIG2_REALIZATIONS} realizations) "
                  "from the result store",
        "cold_s": cold_s,
        "warm_s": warm_s,
        "measured_speedup": speedup,
        "min_speedup": min_speedup,
        "bit_identical": identical,
        "store_hits": store.hits,
        "passed": bool(identical and speedup >= min_speedup),
    }


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run(out_path: str, min_speedup: float) -> int:
    gate = gate_warm_cache(min_speedup)
    status = "ok  " if gate["passed"] else "FAIL"
    print(f"{status} {gate['name']:<15s} "
          f"{gate['measured_speedup']:.1f}x (>= {min_speedup:.0f}x)")

    record = {
        "bench": "engine_fabric",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "gates": [gate],
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_path}")

    if not gate["passed"]:
        print(f"FAIL: gate {gate['name']}: {gate}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# pytest entry point
# ---------------------------------------------------------------------------

def test_warm_cache_replay(benchmark, tmp_path):
    """Warm-replay latency of a small fig2 sweep, as a benchmark."""
    from repro.experiments import fig2

    store = ResultStore(tmp_path / "store")
    set_default_store(store)
    try:
        cold = fig2.run(realizations=20)

        def _warm():
            return fig2.run(realizations=20)

        warm = benchmark.pedantic(_warm, rounds=5, iterations=1,
                                  warmup_rounds=1)
    finally:
        set_default_store(None)
    assert pickle.dumps(warm) == pickle.dumps(cold)
    assert store.hits > 0
    benchmark.extra_info["store_hits"] = store.hits


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default="BENCH_engine_fabric.json",
                        help="JSON record path (default: %(default)s)")
    parser.add_argument("--min-speedup", type=float, default=MIN_WARM_SPEEDUP,
                        help="warm-cache replay gate (default: %(default)s)")
    args = parser.parse_args(argv)
    return run(args.out, args.min_speedup)


if __name__ == "__main__":
    sys.exit(main())
