#!/usr/bin/env python3
"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 perfbench/run.py --workload cos-link --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
runs a fixed amount of the workload twice, untraced and traced, and reports
the per-layer metrics (see ``layers.py``).  ``BENCHMARK.json`` at the root
names the workloads and metrics.  The last line of standard output is the
result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full report (provenance block, failed fraction, sample
counts, output digest, failed checks).  A table goes to standard error.

The environment is pinned here, before numpy loads: single-threaded BLAS,
the ``cext`` kernel backend by name, its compile cache under
``.bench_build/`` (built before anything is timed), serial engine, no
ambient result store.  Every ``REPRO_*`` variable of the caller is dropped.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402 — everything after T0 counts as set-up
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
BACKEND = "cext"
WORKLOADS = ("cos-link", "prr-sweep", "net-grid", "net-cell")
#: Set-up is repeated in fresh processes; ``setup_s`` is the median.
SETUP_PROBES = 5


def pin_environment() -> None:
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.environ.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_KERNEL_BACKEND=BACKEND,
        REPRO_WORKERS="0",
        REPRO_CEXT_CACHE=str(BUILD / "cext"),
        TMPDIR=str(BUILD / "tmp"),  # the C compiler's scratch files too
    )
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny workload sizes (the harness's own test)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up, timed from start
    return p.parse_args(argv)


def build_kernels() -> str:
    """Compile the C kernel into its cache now, so no set-up pays for it."""
    from repro.kernels import cext, set_backend

    if not cext.ensure_built():
        raise RuntimeError(f"kernel backend {BACKEND!r} could not be built")
    return set_backend(BACKEND).name


def setup_seconds(args) -> list:
    """Set-up times of fresh processes, scaled to reference-host speed."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                              cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append(probe["setup_s"] * probe["host_speed"])
    return samples


def git_sha():
    """HEAD's commit from ``.git`` when the checkout has one (None otherwise)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Content hash of the package source (identifies a checkout without git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, backend: str) -> dict:
    import numpy as np
    from repro.engine.store import store_salt

    return {
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "kernel_backend": backend,
        "store_salt": store_salt(),
        "numpy": np.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "argv": sys.argv,
    }


def end_to_end(out, setup_samples) -> dict:
    steps_ms = [s * 1e3 for s in out.steps_s]
    p = statistics.quantiles(steps_ms, n=10, method="inclusive")
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "throughput_per_s": {"value": out.work / out.work_s, "unit": "1/s"},
        "step_ms_p50": {"value": statistics.median(steps_ms), "unit": "ms"},
        "step_ms_p90": {"value": p[8], "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
        "peak_rss_mb": {"value": rss_kib / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro — run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    scratch = BUILD / f"run-{os.getpid()}"
    try:
        return run_benchmark(args, workloads.make(args.workload, args.seed,
                                                  args.smoke, scratch))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def run_benchmark(args, bench) -> int:
    from clock import REF_S, HostClock, calibration_s

    if args.setup_probe:
        bench.setup()
        setup_s = time.perf_counter() - T0
        # Host speed right after set-up: the median of a few calibrations.
        speed = statistics.median(REF_S / calibration_s() for _ in range(5))
        print(json.dumps({"setup_s": setup_s, "host_speed": speed}))
        return 0

    backend = build_kernels()
    bench.setup()  # also leaves bytecode caches warm for the probes
    if args.trace:
        out = bench.traced()
        metrics = out.layers
        samples = {"trace_ops": out.attempted}
    else:
        setup_samples = setup_seconds(args)
        clock = HostClock()
        out = bench.measure(args.seconds, clock)
        if not out.work:
            raise RuntimeError(f"no operation completed: {out.problems}")
        metrics = end_to_end(out, setup_samples)
        samples = {"steps": len(out.steps_s), "setup_probes": len(setup_samples),
                   "host_speed": statistics.quantiles(clock.factors, n=4),
                   "calibrations": len(clock.factors)}

    report = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": provenance(args, backend),
        "failed_frac": out.failed / max(out.attempted, 1),
        "samples": samples,
        "digest": out.digest,
        "problems": out.problems,
        "metrics": metrics,
    }
    width = max(len(k) for k in metrics)
    for key, m in metrics.items():
        print(f"{key:<{width}}  {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_frac':<{width}}  {report['failed_frac']:>14.6g} "
          f"({out.failed}/{out.attempted})", file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
