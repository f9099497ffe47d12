"""The five delta-likeness quality measures and array classification.

All correlation-derived metrics are computed from the exact integer
correlation first and converted to float last, so the reported values carry
no rounding drift.  A perfect delta (no off-peak energy at all) reports
``M = R = inf`` rather than raising.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

from .lattice import (
    CorrelationResult,
    Tensor,
    _edge_shift_indices,
    _square_sum,
    as_tensor,
    correlate,
    dft_magnitudes,
)

__all__ = [
    "QualityReport",
    "merit_factor",
    "side_lobe_ratio",
    "efficiency",
    "power",
    "spectral_flatness",
    "bits",
    "span_bits",
    "classify",
    "cross_metrics",
]


def _as_auto(c) -> CorrelationResult:
    if isinstance(c, CorrelationResult):
        return c
    t = as_tensor(c)
    return correlate(t, t)


def _off_peak_square_sum(c: CorrelationResult):
    arr = c.values.data
    zero = c.zero_index
    if c.values.mode == "int":
        return int(_square_sum(arr.reshape(-1))) - int(arr[zero]) ** 2
    return float(np.sum(arr**2) - arr[zero] ** 2)


def merit_factor(c) -> float:
    """C0^2 over the sum of squared off-peak correlation entries."""
    c = _as_auto(c)
    denom = _off_peak_square_sum(c)
    if denom == 0:
        return math.inf
    if c.values.mode == "int":
        return int(c.peak) ** 2 / denom
    return float(c.peak) ** 2 / denom


def side_lobe_ratio(c) -> float:
    """C0 over the largest off-peak magnitude."""
    c = _as_auto(c)
    if c.off_peak_max == 0:
        return math.inf
    return c.peak / c.off_peak_max


def _lag_scores(lags: np.ndarray) -> tuple[list[float], list[float]]:
    """(R, M) of each row of auto-correlation lags C(k), k >= 0 (C(-k) = C(k)).

    The rows come from ``lattice._auto_lags``; each score is the same
    correctly rounded int / int as :func:`side_lobe_ratio` and
    :func:`merit_factor` give for the full correlation, inf included.
    """
    side = lags[:, 1:]
    peaks = lags[:, 0].tolist()
    maxima = np.maximum(side.max(axis=1), -side.min(axis=1)).tolist()
    halves = _square_sum(side).tolist()  # each off-peak pair C(+/-k) once
    ratios = [math.inf if top == 0 else c / top for c, top in zip(peaks, maxima)]
    merits = [math.inf if half == 0 else c * c / (2 * half) for c, half in zip(peaks, halves)]
    return ratios, merits


def efficiency(a) -> float:
    """Fraction of non-zero elements."""
    a = as_tensor(a)
    return int(np.count_nonzero(a.data)) / a.size


def power(a) -> float:
    """Normalised RMS: sqrt(mean of squares) / max |element|."""
    a = as_tensor(a)
    arr = a.data.astype(np.float64)
    m = np.abs(arr).max()
    if m == 0:
        return 0.0
    return float(np.sqrt(np.mean(arr**2)) / m)


def spectral_flatness(a, oversample: int = 1) -> float:
    """(max - min) / mean of the DFT magnitudes, native size by default.

    ``oversample`` zero-pads the transform for a finer sampling of the
    spectrum; published flatness figures for some arrays follow that
    convention instead of the native one, so it is exposed here.
    """
    mags = dft_magnitudes(a, oversample=oversample).data
    return float((mags.max() - mags.min()) / mags.mean())


def bits(a) -> int:
    """Magnitude bit count ceil(log2(max|a| + 1)), computed exactly."""
    a = as_tensor(a)
    m = int(a.max_abs())
    return max(1, m.bit_length())


def span_bits(a) -> int:
    """Bits for the full signed dynamic range: ceil(log2(max - min + 1)).

    This is the "bits" column convention of the printed family tables (it
    counts the spread between the most negative and most positive element,
    not just the largest magnitude).
    """
    a = as_tensor(a)
    if a.data.dtype == object:
        vals = [int(v) for v in a.data.flat]
        span = max(vals) - min(vals) + 1
    else:
        span = int(a.data.max()) - int(a.data.min()) + 1
    return max(1, (span - 1).bit_length())


def _edge_mask(corr_shape: tuple[int, ...], zero_index: tuple[int, ...]) -> np.ndarray:
    """Boolean mask of the edge-correlation entries in a full auto-correlation:
    the outer ring (any axis at an extreme shift) plus the maximal-overlap
    diagonal tips, with the zero-shift peak excluded."""
    shape = tuple((n + 1) // 2 for n in corr_shape)
    ring = np.zeros(corr_shape, dtype=bool)
    for ax in range(len(corr_shape)):
        sl = [slice(None)] * len(corr_shape)
        sl[ax] = 0
        ring[tuple(sl)] = True
        sl[ax] = -1
        ring[tuple(sl)] = True
    for idx in _edge_shift_indices(shape):
        ring[idx] = True
    ring[zero_index] = False
    return ring


def _edge_value(c: CorrelationResult):
    """Classification C_edge: max |C| over the edge-correlation entry set."""
    arr = c.values.data
    best = 0
    vals = arr[_edge_mask(c.values.shape, c.zero_index)]
    if not vals.size:
        return best
    if arr.dtype == object:
        return max(abs(int(v)) for v in vals.flat)
    if c.values.mode == "int":
        return int(np.abs(vals).max())
    return float(np.abs(vals).max())


def _is_canonical(c: CorrelationResult) -> bool:
    """Off-peak entries vanish except on the outer ring of the correlation."""
    arr = c.values.data
    interior = tuple(slice(1, -1) for _ in range(arr.ndim))
    inner = arr[interior]
    if inner.size == 0:  # an extent-1 axis puts everything on the ring
        return True
    inner = inner.copy()
    zero_inner = tuple(z - 1 for z in c.zero_index)
    inner[zero_inner] = 0
    return not np.any(inner)


@dataclass
class QualityReport:
    """The five quality measures plus the auxiliary correlation scalars."""

    M: float
    R: float
    E: float
    P: float
    S: float
    C0: int | float
    C_edge: int | float
    OP: int | float
    bits: int
    classification: str

    def to_json(self) -> str:
        d = asdict(self)
        d["Cedge"] = d.pop("C_edge")
        d["class"] = d.pop("classification")
        return json.dumps(d, sort_keys=True)

    def csv_row(self) -> str:
        """R, M, S, bits, OP — the column order of the printed family tables."""
        return "%.6g,%.6g,%.6g,%d,%s" % (self.R, self.M, self.S, self.bits, self.OP)


def classify(a) -> QualityReport:
    """Full report; canonical / quasi / other per the off-peak structure.

    canonical: every off-peak entry away from the correlation's outer ring is
    exactly zero.  quasi: all off-peak magnitudes are bounded by the edge
    correlation value.  other: anything else.
    """
    a = as_tensor(a)
    c = correlate(a, a)
    c_edge = _edge_value(c)
    if _is_canonical(c):
        kind = "canonical"
    elif c.off_peak_max <= c_edge:
        kind = "quasi"
    else:
        kind = "other"
    return QualityReport(
        M=merit_factor(c),
        R=side_lobe_ratio(c),
        E=efficiency(a),
        P=power(a),
        S=spectral_flatness(a),
        C0=c.peak,
        C_edge=c_edge,
        OP=c.op,
        bits=bits(a),
        classification=kind,
    )


def cross_metrics(c: CorrelationResult) -> tuple[float, float]:
    """(R, M) for a cross-correlation, anchored on its global peak.

    The peak is the largest magnitude anywhere; R divides it by the largest
    strictly smaller magnitude, while M removes a single peak occurrence from
    the energy sum (a mirrored duplicate of the peak counts as side-lobe).
    """
    arr = c.values.data.astype(np.float64)
    mags = np.abs(arr)
    peak = mags.max()
    if peak == 0:
        return math.inf, math.inf
    below = mags[mags < peak]
    r = math.inf if below.size == 0 else float(peak / below.max())
    denom = float(np.sum(arr**2) - peak**2)
    m = math.inf if denom <= 0 else float(peak**2 / denom)
    return r, m
