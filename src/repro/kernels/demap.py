"""Constellation demapping kernels over precomputed per-modulation tables.

The Gray-coded 802.11a constellations factor into independent I/Q PAM
axes, so both soft and hard demapping reduce to per-axis kernels.  The
tables they consume — the PAM levels and the per-bit label sets — are
built once per :class:`~repro.phy.modulation.Modulation`.

Both kernels work over per-level columns: one contiguous 1-D array of
distances from every observation to one PAM level, so each reduction is
an elementwise ufunc over ``n`` values, never a short inner axis.

``axis_llrs`` computes CSI-weighted max-log LLRs.  For each bit it takes
the elementwise ``np.minimum`` of the squared-distance columns of the
labels whose bit is 0, and of those whose bit is 1, then
``(d1 - d0) * csi``.  Every distance is the same ``(y - l) ** 2`` a
scalar transcription computes, and ``min`` is exact, so the LLRs equal
:func:`repro.kernels.oracle.demap_soft_oracle` bit for bit.

``axis_hard_bits`` is a running strict-``<`` argmin over the ``|y - l|``
columns: a later level wins only when strictly closer, which is
``argmin``'s first-index tie rule.  The winning label is unpacked to
bits MSB first, the order the mapper consumes them.

Both write into a caller-supplied ``out`` block, so a modulation fills
its I and Q halves of one output array without a concatenate.
"""

from __future__ import annotations

import numpy as np

__all__ = ["axis_llrs", "axis_hard_bits", "build_bit_labels"]


def build_bit_labels(n_levels: int, bits_per_axis: int) -> np.ndarray:
    """``(bits_per_axis, 2, n_levels // 2)`` int — per-bit label sets.

    Row ``[bit, v]`` lists, in ascending order, the labels whose ``bit``
    equals ``v``; bit 0 is the first transmitted bit of the axis (label
    MSB).
    """
    labels = np.arange(n_levels)
    return np.stack(
        [
            [labels[(labels >> (bits_per_axis - 1 - bit)) & 1 == v] for v in (0, 1)]
            for bit in range(bits_per_axis)
        ]
    )


def _min_over(columns: list, labels: np.ndarray) -> np.ndarray:
    """Elementwise minimum of ``columns[l]`` over ``labels``."""
    best = columns[labels[0]]
    for label in labels[1:]:
        best = np.minimum(best, columns[label])
    return best


def axis_llrs(
    observed: np.ndarray,
    csi: np.ndarray,
    levels: np.ndarray,
    bit_labels: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Max-log LLRs for one PAM axis, written into ``out`` and returned.

    ``levels`` is the axis PAM alphabet indexed by label, ``bit_labels``
    the output of :func:`build_bit_labels` for that alphabet, and ``out``
    an ``(n_symbols, bits_per_axis)`` float64 array (a column block of a
    wider output is fine).
    """
    observed = np.ascontiguousarray(observed)
    d2 = [(observed - level) ** 2 for level in levels]
    for bit, (zeros, ones) in enumerate(bit_labels):
        d0 = _min_over(d2, zeros)
        d1 = _min_over(d2, ones)
        np.multiply(d1 - d0, csi, out=out[:, bit])
    return out


def axis_hard_bits(
    observed: np.ndarray, levels: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Nearest-level hard decisions, written into ``out`` and returned.

    ``out`` is an ``(n_symbols, bits_per_axis)`` uint8 array (a column
    block of a wider output is fine).
    """
    observed = np.ascontiguousarray(observed)
    best = np.abs(observed - levels[0])
    idx = np.zeros(observed.shape, dtype=np.int8)
    for label in range(1, levels.size):
        dist = np.abs(observed - levels[label])
        np.putmask(idx, dist < best, label)
        np.minimum(best, dist, out=best)
    m = out.shape[1]
    for bit in range(m):
        np.bitwise_and(idx >> (m - 1 - bit), 1, out=out[:, bit], casting="unsafe")
    return out
