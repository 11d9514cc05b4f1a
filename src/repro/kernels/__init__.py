"""``repro.kernels`` — dispatchable compute kernels for the PHY/CoS hot paths.

The simulator's per-packet cost is dominated by a handful of tight inner
loops: the Viterbi add-compare-select recursion, constellation (de)mapping,
deinterleaving, the data scrambler, and silence energy detection.  This
package collects those loops into *kernels* behind a small dispatch layer.
Only the Viterbi recursion has two implementations, picked from what the
machine can do:

``cext``
    The scalar ACS embedded as C source and compiled on demand with
    whatever system compiler exists (``cc``/``gcc``/``clang``), cached
    per machine, loaded via ctypes.  Registered only when a compiler is
    on PATH, and resolved only once the build has succeeded.
``numpy``
    The pure-NumPy fallback for machines without a working compiler.
    Its Viterbi uses a *blocked* ACS: k trellis steps are fused into one
    super-step whose 2^k branch metrics come from a fixed-order fold of
    the per-step pair metrics, cutting the Python-level loop count by k×.

Backend selection: ``REPRO_KERNEL_BACKEND`` (``auto``/``cext``/``numpy``)
or :func:`set_backend`; ``auto`` prefers ``cext``, then ``numpy``.
:func:`warmup` pre-builds tables (and the C library) — the trial engine
calls it once per worker process.

Both backends implement the tie-breaking rule of the scalar oracles in
:mod:`repro.kernels.oracle` (prefer the lower branch index, later steps
dominating), so on *exact-arithmetic* inputs — integer-valued LLRs, hard
decisions, erasures — their decoded bits are provably identical, ties
included.  ``tests/test_kernels.py`` asserts this against the oracle
across all eight 802.11a rates.
"""

from repro.kernels.dispatch import (
    KernelBackend,
    available_backends,
    backend_name,
    decode_many,
    deinterleave_rx,
    get_backend,
    set_backend,
    use_backend,
    warmup,
)
from repro.kernels.scramble import prbs_sequence, prbs_state_table
from repro.kernels.energy import silence_energies, silence_mask

__all__ = [
    "KernelBackend",
    "available_backends",
    "backend_name",
    "decode_many",
    "deinterleave_rx",
    "get_backend",
    "set_backend",
    "use_backend",
    "warmup",
    "prbs_sequence",
    "prbs_state_table",
    "silence_energies",
    "silence_mask",
]
