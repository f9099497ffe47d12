"""The five delta-likeness quality measures and array classification.

All correlation-derived metrics are computed from the exact integer
correlation first and converted to float last, so the reported values carry
no rounding drift; S too, from the correlation folded onto the DFT grid, with
no FFT of the array.  A perfect delta (no off-peak energy at all) reports
``M = R = inf`` rather than raising; so does an array with no off-peak lag
at all, a single cell.  :func:`classify` owns the report's rules: it refuses
an input of zero energy (C0 = 0 leaves R, M and S undefined) with a
``LatticeError`` (``_nonzero_auto``), and its ``_report`` alone reads OP off
the correlation; a caller that holds the auto-correlation passes it in there.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from . import _LAZY
from .lattice import (
    CorrelationResult,
    LatticeError,
    Tensor,
    _auto_peak,
    _edge_sets,
    _off_peak_magnitudes,
    _periodic,
    _square_sum,
    as_tensor,
    correlate,
)

__all__ = list(_LAZY["metrics"])


def _as_auto(c) -> CorrelationResult:
    return c if isinstance(c, CorrelationResult) else correlate(c, c)


def merit_factor(c) -> float:
    """C0^2 over the sum of squared off-peak correlation entries."""
    c = _as_auto(c)
    denom = _auto_peak(c.values) - c.peak * c.peak  # sum(C^2) less the peak's square
    if denom == 0:
        return math.inf
    return c.peak ** 2 / denom


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
    :func:`merit_factor` give for the full correlation, inf included: a row
    with no off-peak lag scores R = M = inf.
    """
    side = lags[:, 1:]
    peaks = lags[:, 0].tolist()
    maxima = np.maximum(side.max(axis=1, initial=0), -side.min(axis=1, initial=0)).tolist()
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


def _flatness(c: CorrelationResult, grid: tuple[int, ...]) -> float:
    """S = (max - min) / mean of |F| on ``grid``, from the array's auto-correlation ``c``.

    |F|^2 = C0 + m, m the DFT of the fold less C0 (taken out in integers), so
    max - min = (m_max - m_min) / (sqrt(C0 + m_max) + sqrt(C0 + m_min)) cancels
    nothing.  A spectral null may round below 0, so radicands are clamped there.
    """
    rest = _periodic(c.values.data, grid)
    rest[(0,) * rest.ndim] -= c.peak
    m = np.fft.fftn(np.asarray(rest, dtype=np.float64)).real
    mags = np.sqrt(np.maximum(float(c.peak) + m, 0))  # monotone in m: the extremes pair up
    return float((m.max() - m.min()) / ((mags.max() + mags.min()) * mags.mean()))


def spectral_flatness(a, oversample: int = 1) -> float:
    """(max - min) / mean of the DFT magnitudes, native size by default.

    ``oversample`` zero-pads each axis to ``int(n * oversample)`` >= n points
    (``LatticeError`` otherwise) for a finer sampling of the spectrum;
    published flatness figures for some arrays follow that convention.
    """
    a = as_tensor(a)
    grid = tuple(int(n * oversample) for n in a.shape)
    if any(m < n for m, n in zip(grid, a.shape)):
        raise LatticeError(f"oversample {oversample} gives a DFT grid {grid} smaller than the array {a.shape}")
    return _flatness(correlate(a, a), grid)


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
    span = int(a.data.max()) - int(a.data.min()) + 1
    return max(1, (span - 1).bit_length())


class QualityReport(NamedTuple):
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
        d = self._asdict()
        d["Cedge"] = d.pop("C_edge")
        d["class"] = d.pop("classification")
        return json.dumps(d, sort_keys=True)


def _nonzero_auto(a) -> tuple[Tensor, CorrelationResult]:
    """``a`` as a tensor, and its auto-correlation; ``LatticeError`` if C0 = sum(a^2) is 0."""
    a = as_tensor(a)
    if _auto_peak(a) == 0:
        raise LatticeError("zero-energy input: C0 = 0 leaves R, M and S undefined")
    return a, correlate(a, a)


def classify(a) -> QualityReport:
    """Full report; canonical / quasi / other per the off-peak structure.

    The entry sets are ``lattice._edge_sets(a.shape)``.  canonical: every
    off-peak entry off the correlation's outer ring (``interior``) is
    exactly zero.  quasi: all off-peak magnitudes are bounded by ``C_edge``,
    the largest magnitude on the outer ring and the diagonal tips
    (``edge``).  other: anything else.  ``OP`` is the largest off-peak
    magnitude off the ``ends`` (the corners, plus the diagonal tips when
    every extent is odd and at least 3).  S comes from the same correlation.
    """
    return _report(*_nonzero_auto(a))


def _report(a: Tensor, c: CorrelationResult) -> QualityReport:
    """:func:`classify`'s report of a nonzero ``a`` from its auto-correlation ``c``."""
    sets = _edge_sets(a.shape)
    scalar = type(c.peak)  # int, or float for a real input
    mags = _off_peak_magnitudes(c.values.data, c.zero_index).reshape(-1)
    c_edge = scalar(mags[sets.edge].max(initial=0))
    if not np.any(mags[sets.interior]):
        kind = "canonical"
    elif c.off_peak_max <= c_edge:
        kind = "quasi"
    else:
        kind = "other"
    mags[sets.ends] = 0
    return QualityReport(
        M=merit_factor(c),
        R=side_lobe_ratio(c),
        E=efficiency(a),
        P=power(a),
        S=_flatness(c, a.shape),
        C0=c.peak,
        C_edge=c_edge,
        OP=scalar(mags.max()),
        bits=bits(a),
        classification=kind,
    )


def cross_metrics(c: CorrelationResult) -> tuple[float, float]:
    """(R, M) for a cross-correlation, anchored on its global peak.

    The peak is the largest magnitude anywhere; R divides it by the largest
    strictly smaller magnitude, while M removes a single peak occurrence from
    the energy sum (a mirrored duplicate of the peak counts as side-lobe).
    """
    mags = np.abs(c.values.data)
    scalar = type(c.peak)  # int: R and M are correctly rounded int / int
    peak = scalar(mags.max())
    if peak == 0:
        return math.inf, math.inf
    below = mags[mags < peak]
    r = math.inf if below.size == 0 else peak / scalar(below.max())
    denom = _auto_peak(c.values) - peak * peak
    m = math.inf if denom <= 0 else peak * peak / denom
    return r, m
