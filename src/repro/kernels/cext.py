"""Optional C Viterbi backend, compiled on demand with the system compiler.

The scalar add-compare-select recursion is tiny (a few dozen lines of
C), and an ``-O3`` build of it runs the whole 64-state trellis an order
of magnitude faster than any NumPy formulation — NumPy's per-call
dispatch overhead is the floor there, not the arithmetic.  This module
embeds that C source, builds it into a shared library the first time it
is needed (``cc``/``gcc``/``clang``, whichever exists), caches the
artifact under a content-hashed name in the per-user temp directory, and
loads it with :mod:`ctypes`.  No toolchain, no build step, no new
dependency: machines without a C compiler simply don't register the
backend, and the dispatcher resolves to ``cext`` only once
:func:`ensure_built` has succeeded — a failed build resolves to the
blocked NumPy kernel with a one-time warning.

Semantics are those of the scalar oracle (same pair-metric signs, same
``c1 > c0`` tie rule, same lowest-state preference for the unterminated
start) — the equivalence suite decodes through this backend against the
oracle like the NumPy one.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading
from typing import List, Optional

import numpy as np

from repro.phy.trellis import N_STATES, shared_trellis

__all__ = ["compiler_available", "ensure_built", "decode_c"]

log = logging.getLogger("repro.kernels")

_SOURCE = r"""
#include <stdint.h>

#define N_STATES 64
#define NEG_INF (-1e18)
#define NORM_INTERVAL 256

/* Scalar ACS Viterbi for the 802.11a K=7 rate-1/2 code.
 *
 * llrs:        2*n_steps soft values (A0 B0 A1 B1 ...), positive => bit 0
 * prev_state:  64x2 int64, predecessor state per (state, branch)
 * branch_pair: 64x2 int64, pair-metric index per (state, branch)
 * input_bit:   64 uint8, info bit associated with each state
 * decisions:   n_steps x 64 uint8 scratch (caller-allocated)
 * bits_out:    n_steps uint8 decoded info bits
 *
 * Tie rule: branch 1 wins only on strict c1 > c0; unterminated start
 * state is the lowest-index maximiser.  Metrics are re-centred about
 * their peak every NORM_INTERVAL steps (a float-range guard only).
 */
void viterbi_decode(
    const double *llrs,
    int64_t n_steps,
    const int64_t *prev_state,
    const int64_t *branch_pair,
    const uint8_t *input_bit,
    int terminated,
    uint8_t *decisions,
    uint8_t *bits_out)
{
    double metric[N_STATES];
    double next[N_STATES];
    int s;
    int64_t t;

    for (s = 0; s < N_STATES; s++) metric[s] = NEG_INF;
    metric[0] = 0.0;

    for (t = 0; t < n_steps; t++) {
        const double la = llrs[2 * t];
        const double lb = llrs[2 * t + 1];
        const double pm[4] = {la + lb, la - lb, lb - la, -la - lb};
        uint8_t *row = decisions + t * N_STATES;
        for (s = 0; s < N_STATES; s++) {
            const double c0 = metric[prev_state[2 * s]] + pm[branch_pair[2 * s]];
            const double c1 =
                metric[prev_state[2 * s + 1]] + pm[branch_pair[2 * s + 1]];
            if (c1 > c0) {
                row[s] = 1;
                next[s] = c1;
            } else {
                row[s] = 0;
                next[s] = c0;
            }
        }
        if ((t & (NORM_INTERVAL - 1)) == NORM_INTERVAL - 1) {
            double peak = next[0];
            for (s = 1; s < N_STATES; s++)
                if (next[s] > peak) peak = next[s];
            for (s = 0; s < N_STATES; s++) metric[s] = next[s] - peak;
        } else {
            for (s = 0; s < N_STATES; s++) metric[s] = next[s];
        }
    }

    int state = 0;
    if (!terminated) {
        double best = NEG_INF;
        for (s = 0; s < N_STATES; s++)
            if (metric[s] > best) { best = metric[s]; state = s; }
    }
    for (t = n_steps - 1; t >= 0; t--) {
        bits_out[t] = input_bit[state];
        state = (int)prev_state[2 * state + decisions[t * N_STATES + state]];
    }
}
"""

_COMPILERS = ("cc", "gcc", "clang")

_lock = threading.Lock()
_lib: Optional[ctypes.CDLL] = None
_build_failed = False


def _find_compiler() -> Optional[str]:
    candidates: List[str] = []
    env_cc = os.environ.get("CC")
    if env_cc:
        candidates.append(env_cc)
    candidates.extend(_COMPILERS)
    for cand in candidates:
        path = shutil.which(cand)
        if path:
            return path
    return None


def compiler_available() -> bool:
    """Cheap registration check: is any C compiler on PATH?"""
    return _find_compiler() is not None


def _cache_dir() -> str:
    root = os.environ.get("REPRO_CEXT_CACHE") or os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )
    os.makedirs(root, mode=0o700, exist_ok=True)
    return root


def _build_library() -> Optional[ctypes.CDLL]:
    compiler = _find_compiler()
    if compiler is None:
        return None
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = os.path.join(cache, f"viterbi_{digest}.so")
    if not os.path.exists(so_path):
        src_path = os.path.join(cache, f"viterbi_{digest}.c")
        tmp_path = f"{so_path}.tmp{os.getpid()}"
        with open(src_path, "w") as fh:
            fh.write(_SOURCE)
        proc = subprocess.run(
            [compiler, "-O3", "-fPIC", "-shared", "-o", tmp_path, src_path],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            log.warning("cext kernel build failed:\n%s", proc.stderr.strip())
            return None
        os.replace(tmp_path, so_path)  # atomic: safe under concurrent builds
    lib = ctypes.CDLL(so_path)
    u8 = np.ctypeslib.ndpointer(np.uint8, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.viterbi_decode.argtypes = [
        f64, ctypes.c_int64, i64, i64, u8, ctypes.c_int, u8, u8,
    ]
    lib.viterbi_decode.restype = None
    return lib


def ensure_built() -> bool:
    """Build/load the library once; False when unavailable or broken."""
    global _lib, _build_failed
    if _lib is not None:
        return True
    if _build_failed:
        return False
    with _lock:
        if _lib is None and not _build_failed:
            try:
                _lib = _build_library()
            except Exception:  # pragma: no cover — defensive
                log.warning("cext kernel load failed", exc_info=True)
                _lib = None
            if _lib is None:
                _build_failed = True
    return _lib is not None


_trellis_cache = None


def _trellis_args():
    global _trellis_cache
    if _trellis_cache is None:
        trellis = shared_trellis()
        _trellis_cache = (
            np.ascontiguousarray(trellis.prev_state, dtype=np.int64),
            np.ascontiguousarray(trellis.branch_pair, dtype=np.int64),
            np.ascontiguousarray(trellis.input_bit, dtype=np.uint8),
        )
    return _trellis_cache


def decode_c(llrs: np.ndarray, terminated: bool = True) -> np.ndarray:
    """Decode one rate-1/2 LLR stream through the compiled kernel.

    Raises :class:`RuntimeError` when the library is not built; the
    dispatcher never hands out this backend in that case.
    """
    llrs = np.ascontiguousarray(llrs, dtype=np.float64)
    if llrs.size % 2 != 0:
        raise ValueError("LLR stream must contain whole (A, B) pairs")
    n_steps = llrs.size // 2
    if n_steps == 0:
        return np.zeros(0, dtype=np.uint8)
    if not ensure_built():
        raise RuntimeError("the cext Viterbi kernel could not be built")
    prev_state, branch_pair, input_bit = _trellis_args()
    decisions = np.empty(n_steps * N_STATES, dtype=np.uint8)
    bits = np.empty(n_steps, dtype=np.uint8)
    _lib.viterbi_decode(
        llrs, n_steps, prev_state, branch_pair, input_bit,
        int(terminated), decisions, bits,
    )
    return bits
