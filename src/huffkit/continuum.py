"""Continuum delta-correlated probes and their integer discretization.

A probe is the inverse DFT of a unimodular spectrum exp(i*phi(k)) whose phase
is an odd polynomial, so the spectrum is conjugate-symmetric, the probe is
real, and |DFT(probe)| == 1 on every bin — spectrally flat by construction.
The classic instance is phi(k) = k^3/3, whose continuum limit is the Airy
function; `airy` evaluates that directly (power series on [-7, 5], the
standard asymptotic expansions outside).

`discretize_and_tweak` turns a sampled real probe into a small-bit-depth
integer array: scale so max|h| hits 2^bits - 1, round, then greedily apply
the single best +/-1 element change per iteration until no change improves
the chosen quality metric.  |a_i| <= 2^bits - 1 holds as a hard bound (an
integer input already past it may only move toward zero).  A move
a_i -> a_i + t changes the auto-correlation to C + t*g_i + delta with
g_i(s) = a(i+s) + a(i-s), so the peak and energy of every move follow from
one correlation of C with a and one self-convolution of a per iteration, and
the merit factor of all 2N moves is scored at once in exact integers.  Ties go
to the lowest flat index, +1 before -1.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import _LAZY
from .lattice import (
    Tensor,
    _int_dtype,
    _off_peak_magnitudes,
    _periodic,
    _square_sum,
    as_tensor,
    convolve,
    correlate,
)
from .metrics import QualityReport, classify

__all__ = list(_LAZY["continuum"])


class ContinuumError(ValueError):
    """Raised for invalid probe specifications or tweak parameters."""


# ---------------------------------------------------------------------------
# Airy evaluation: series inside [-7, 5], asymptotics outside.  The series
# loses ~4 digits to cancellation by x = -7 and the asymptotic error is
# ~1e-11 there, so the crossover keeps the absolute error under 1e-10
# across [-15, 8] (checked against an independent implementation in tests).

_AI0 = 0.3550280538878172  # Ai(0)  = 3^(-2/3) / Gamma(2/3)
_AIP0 = -0.2588194037928068  # Ai'(0) = -3^(-1/3) / Gamma(1/3)
_SQRT_PI = math.sqrt(math.pi)


def _u_coefficients(count: int) -> list[float]:
    u = [1.0]
    for k in range(count - 1):
        u.append(u[-1] * (6 * k + 1) * (6 * k + 5) / (72.0 * (k + 1)))
    return u


_U = _u_coefficients(28)


def _airy_series(x: float) -> float:
    x3 = x * x * x
    tf, tg = 1.0, x
    f, g = tf, tg
    for k in range(80):
        tf *= x3 / ((3 * k + 2) * (3 * k + 3))
        tg *= x3 / ((3 * k + 3) * (3 * k + 4))
        f += tf
        g += tg
        if abs(tf) < 1e-20 and abs(tg) < 1e-20:
            break
    return _AI0 * f + _AIP0 * g


def _asym_sum(zeta: float, us: list[float], alternate: bool) -> float:
    total, prev = 0.0, math.inf
    sign = 1.0
    for k, u in enumerate(us):
        term = u / zeta**k if k else u
        if abs(term) >= prev:  # divergent tail reached; stop at best truncation
            break
        total += sign * term
        prev = abs(term)
        if alternate:
            sign = -sign
    return total


def _airy_asymptotic_pos(x: float) -> float:
    zeta = (2.0 / 3.0) * x ** 1.5
    s = _asym_sum(zeta, _U, alternate=True)
    return math.exp(-zeta) / (2.0 * _SQRT_PI * x ** 0.25) * s


def _airy_asymptotic_neg(x: float) -> float:
    z = -x
    zeta = (2.0 / 3.0) * z ** 1.5
    even = _asym_sum(zeta * zeta, _U[0::2], alternate=True)
    odd = _asym_sum(zeta * zeta, _U[1::2], alternate=True) / zeta
    angle = zeta - 0.25 * math.pi
    return (math.cos(angle) * even + math.sin(angle) * odd) / (_SQRT_PI * z ** 0.25)


def _airy_scalar(x: float) -> float:
    if -7.0 <= x <= 5.0:
        return _airy_series(x)
    if x > 5.0:
        return _airy_asymptotic_pos(x)
    return _airy_asymptotic_neg(x)


def airy(x_samples) -> Tensor:
    """Ai(x) at each sample, absolute error < 1e-10 on [-15, 8]."""
    xs = np.asarray(x_samples, dtype=np.float64).reshape(-1)
    return Tensor(np.array([_airy_scalar(float(v)) for v in xs]), "real")


# ---------------------------------------------------------------------------
# probe synthesis


def _normalize_coefficients(raw) -> tuple[tuple[tuple[int, ...], float], ...]:
    """Sorted (exponents, value) pairs; an exponent key is an int, a tuple of ints or text "e1,e2"."""
    out = []
    try:
        for key, value in raw.items() if isinstance(raw, Mapping) else tuple(raw):
            if isinstance(key, str):
                key = key.split(",")
            exps = (int(key),) if isinstance(key, numbers.Integral) else tuple(int(e) for e in key)
            out.append((exps, float(value)))
    except (TypeError, ValueError):
        raise ContinuumError(f"coefficients must map exponents to numbers, got {raw!r}") from None
    return tuple(sorted(out))


@dataclass(frozen=True)
class ProbeSpec:
    """Odd-phase probe recipe: phi(k) = sum c * prod(k_axis^exp).

    ``coefficients`` maps monomial exponent tuples to real coefficients; every
    monomial must have odd total degree, which is exactly the condition for
    phi(-k) = -phi(k) and hence a real probe.  Frequencies per axis are the
    DFT bins scaled to bandwidth*[-pi, pi).  These three fields are all that
    ``synthesize_probe`` reads, and all that ``to_json`` records.
    """

    coefficients: tuple
    samples: tuple[int, ...]
    bandwidth: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _normalize_coefficients(self.coefficients))
        samples = (self.samples,) if isinstance(self.samples, numbers.Integral) else self.samples
        if not isinstance(samples, (tuple, list)) or not all(isinstance(n, numbers.Integral) for n in samples):
            raise ContinuumError(f"samples must be an integer or a list of integers, got {self.samples!r}")
        object.__setattr__(self, "samples", tuple(int(n) for n in samples))
        if not isinstance(self.bandwidth, numbers.Real):
            raise ContinuumError(f"bandwidth must be a number, got {self.bandwidth!r}")
        if len(self.samples) not in (1, 2):
            raise ContinuumError("probes are 1D or 2D")
        if any(n < 3 for n in self.samples):
            raise ContinuumError("need at least 3 samples per axis")
        if not (self.bandwidth > 0 and math.isfinite(self.bandwidth)):
            raise ContinuumError("bandwidth must be positive")
        dim = len(self.samples)
        for exps, value in self.coefficients:
            if len(exps) != dim:
                raise ContinuumError(
                    f"monomial {exps} has {len(exps)} exponents on a {dim}D grid"
                )
            if any(e < 0 for e in exps):
                raise ContinuumError(f"negative exponent in monomial {exps}")
            if sum(exps) % 2 == 0:
                raise ContinuumError(
                    f"parity violation: monomial {exps} has even total degree, "
                    "so exp(i*phi) is not conjugate-symmetric"
                )
            if not math.isfinite(value):
                raise ContinuumError(f"non-finite coefficient for {exps}")

    def to_json(self) -> str:
        return json.dumps(
            {
                "coefficients": {
                    ",".join(str(e) for e in exps): value
                    for exps, value in self.coefficients
                },
                "samples": list(self.samples),
                "bandwidth": self.bandwidth,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "ProbeSpec":
        raw = json.loads(text)
        if missing := [key for key in ("coefficients", "samples") if not isinstance(raw, dict) or key not in raw]:
            raise ContinuumError(f"probe spec has no {' and no '.join(map(repr, missing))}")
        if unknown := sorted(set(raw) - {f.name for f in fields(cls)}):
            raise ContinuumError(f"probe spec has unknown keys {', '.join(map(repr, unknown))}")
        return cls(**raw)


def synthesize_probe(spec: ProbeSpec) -> Tensor:
    """Real probe = IDFT of exp(i*phi) on the spec's frequency grid.

    |DFT| of the result is identically 1, so its spectral flatness is exactly
    0 and its periodic auto-correlation is a discrete delta.  Raises if the
    phase overflows float64, or if the imaginary residue exceeds 1e-9 (cannot
    happen for a valid odd phase; that check guards the implementation).
    """
    if not isinstance(spec, ProbeSpec):
        raise ContinuumError("synthesize_probe expects a ProbeSpec")
    with np.errstate(over="ignore", invalid="ignore"):  # a phase past float64 is refused below
        axes = [spec.bandwidth * 2.0 * np.pi * np.fft.fftfreq(n) for n in spec.samples]
        grids = np.meshgrid(*axes, indexing="ij")
        phi = np.zeros(spec.samples, dtype=np.float64)
        for exps, value in spec.coefficients:
            term = np.full(spec.samples, value)
            for g, e in zip(grids, exps):
                if e:
                    term = term * g**e
            phi += term
    # Even axes have a self-paired Nyquist bin; its phase must vanish for the
    # spectrum to stay conjugate-symmetric.
    for axis, n in enumerate(spec.samples):
        if n % 2 == 0:
            sel = [slice(None)] * len(spec.samples)
            sel[axis] = n // 2
            phi[tuple(sel)] = 0.0
    if not np.isfinite(phi).all():
        raise ContinuumError("the phase overflows float64 on this grid; lower the coefficients or the bandwidth")
    probe = np.fft.ifftn(np.exp(1j * phi))
    residue = float(np.abs(probe.imag).max())
    scale = max(1.0, float(np.abs(probe.real).max()))
    if residue > 1e-9 * scale:
        raise ContinuumError(f"imaginary residue {residue:g} exceeds tolerance")
    out = probe.real.copy()
    return Tensor(out if out.ndim else out.reshape(1), "real")


class DeltaReport(NamedTuple):
    """Relative off-peak levels of a probe's auto-correlations."""

    peak: float
    periodic_rel: float
    aperiodic_rel: float


def verify_delta_correlation(h) -> DeltaReport:
    """Periodic and aperiodic auto-correlation off-peak maxima, as fractions
    of the zero-shift peak, from one correlation: the periodic one is its
    fold onto the array's grid, exact for integers.

    Synthesized probes give periodic_rel at float-noise level (< 1e-10);
    truncated continuum samples show small nonzero aperiodic residue.
    """
    h = as_tensor(h)
    c = correlate(h, h)
    if c.peak == 0:
        raise ContinuumError("zero-energy input")
    periodic = _off_peak_magnitudes(_periodic(c.values.data, h.shape), (0,) * h.ndim).max()
    peak = float(c.peak)
    return DeltaReport(peak=peak, periodic_rel=float(periodic) / peak, aperiodic_rel=float(c.off_peak_max) / peak)


# ---------------------------------------------------------------------------
# discretize and tweak


class TweakResult(NamedTuple):
    tensor: Tensor
    report: QualityReport
    iterations: int


# Floats only shortlist moves for the exact comparison.  A ratio of two
# integers, each rounded once to float64 and then divided, is within 3 units
# of roundoff (3 * 2^-53) of the exact ratio, so every move that ties the
# exact maximum lies well inside this relative margin of the float maximum.
_SHORTLIST_MARGIN = 1e-12

# Entries per temporary when all off-peak maxima are taken at once (1 MiB of
# int64), so a large 2D probe never holds one correlation per move.
_CHUNK = 1 << 17

_STEPS = np.array([1, -1])  # move k is (flat index k // 2, _STEPS[k % 2])

_PAST_INT64 = "a +/-1 move would take the auto-correlation past int64"


def _ratio(num: int, den: int):
    return math.inf if den == 0 else Fraction(num, den)


def _moved(corr: np.ndarray, windows: np.ndarray, zero: tuple[int, ...], flat: int, t: int):
    """C' = C + t*g + delta after a(flat) += t, with g(s) = a(i+s) + a(i-s)."""
    w = windows[np.unravel_index(flat, windows.shape[: corr.ndim])]
    out = corr + t * (w + np.flip(w))
    out[zero] += 1
    return out


def _off_peak_maxima(corr: np.ndarray, windows: np.ndarray, zero: tuple[int, ...]) -> np.ndarray:
    """Off-peak max |C + t*g_i| of every move, in move order, chunk by chunk."""
    shape = windows.shape[: corr.ndim]
    count = math.prod(shape)
    flat_corr = corr.reshape(-1)
    z = np.ravel_multi_index(zero, corr.shape)
    step = max(1, _CHUNK // corr.size)
    out = np.empty((count, 2), dtype=np.int64)
    for lo in range(0, count, step):
        block = windows[np.unravel_index(np.arange(lo, min(lo + step, count)), shape)]
        g = (block + np.flip(block, tuple(range(1, block.ndim)))).reshape(len(block), -1)
        for col, t in enumerate(_STEPS):
            mags = np.abs(flat_corr + t * g)
            mags[:, z] = 0
            out[lo : lo + len(block), col] = mags.max(axis=1)
    return out.reshape(-1)


def _top(num: np.ndarray, den: np.ndarray, moves: np.ndarray):
    """(exact max of num/den over ``moves``, the moves reaching it, ascending).

    The ratio is inf where den == 0.  Float ratios pick the shortlist that
    the exact ratios then decide; values past float64 skip the shortlist.
    """
    try:
        n, d = num[moves].astype(np.float64), den[moves].astype(np.float64)
    except OverflowError:
        pass
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            q = np.where(d == 0, np.inf, n / d)
        moves = moves[q >= q.max() * (1 - _SHORTLIST_MARGIN)]
    keys = [_ratio(int(num[k]), int(den[k])) for k in moves]
    best = max(keys)
    return best, [int(k) for k, key in zip(moves, keys) if key == best]


def _tweak_scan(
    start: np.ndarray, corr: np.ndarray, zero: tuple[int, ...], name: str, limit: int
):
    """Best single +/-1 move as (flat, t, new correlation), or None.

    Every move a_i -> a_i + t is scored at once: its correlation is
    C' = C + t*g_i + delta with g_i(s) = a(i+s) + a(i-s), so

        c0' = c0 + 2t*a_i + 1
        E'  = sum C'^2 = E + 4*c0 + 2*S(i) + 1 + 4t*(D(i) + a_i)

    with D = (C correlated with a) read on [n-1, 2n-1) per axis and
    S(i) = (a convolved with a) at 2i, both from the exact engine.  Moves with
    |a_i + t| > limit are left out unless they bring a_i toward zero.  The
    score is exact: (M, R) for objective "M", (R, M) for "R", with
    M = c0'^2 / (E' - c0'^2) and R = c0' / off-peak max |C'|; the secondary
    is worked out only for moves tied on the primary.  The move must beat
    the current score; among equal scores the lowest flat index wins, +1
    before -1.  The winner's C' is rebuilt and must show the c0' and E' it
    was scored with, or ``ArithmeticError`` is raised.
    """
    a = start.reshape(-1)
    c0 = int(corr[zero])
    amax = int(np.abs(a).max())
    if _int_dtype(c0 + 2 * amax + 1) is object:  # bounds every |C'(s)| by Cauchy-Schwarz
        raise ArithmeticError(_PAST_INT64)
    corr = corr.astype(np.int64, copy=False)  # |C(s)| <= c0
    energy = int(_square_sum(corr.reshape(-1)))
    maxoff = int(_off_peak_magnitudes(corr, zero).max())

    d_full = correlate(Tensor(corr, "int"), Tensor(start, "int")).values
    s_full = convolve(Tensor(start, "int"), Tensor(start, "int"))
    base = energy + 4 * c0 + 1
    bound = base + 2 * s_full.max_abs() + 4 * (d_full.max_abs() + amax)
    dtype = _int_dtype(bound)
    window = tuple(slice(n - 1, 2 * n - 1) for n in start.shape)
    d = d_full.data[window].reshape(-1).astype(dtype)
    s = s_full.data[(slice(None, None, 2),) * start.ndim].reshape(-1).astype(dtype)
    x = a.astype(dtype)[:, None]
    peaks = (c0 + 1 + 2 * x * _STEPS).reshape(-1)
    energies = (base + 2 * s[:, None] + 4 * (d[:, None] + x) * _STEPS).reshape(-1)
    off2 = energies - peaks * peaks

    # never empty: each entry has a move that shrinks |a_i| or keeps it within 1 <= limit
    moved = np.abs(a[:, None] + _STEPS)
    moves = np.flatnonzero((moved <= limit) | (moved < np.abs(a)[:, None]))
    pad = [(n - 1, n - 1) for n in start.shape]
    windows = sliding_window_view(np.pad(start, pad), corr.shape)

    def candidate(k: int) -> np.ndarray:
        return _moved(corr, windows, zero, k // 2, int(_STEPS[k % 2]))

    m_now, r_now = _ratio(c0 * c0, energy - c0 * c0), _ratio(c0, maxoff)
    if name == "M":
        current = (m_now, r_now)
        best, tied = _top(peaks * peaks, off2, moves)

        def secondary(k: int):
            return _ratio(int(peaks[k]), int(_off_peak_magnitudes(candidate(k), zero).max()))
    else:
        current = (r_now, m_now)
        best, tied = _top(peaks, _off_peak_maxima(corr, windows, zero), moves)

        def secondary(k: int):
            return _ratio(int(peaks[k]) ** 2, int(off2[k]))

    if best < current[0]:
        return None
    seconds = [secondary(k) for k in tied]
    top = max(seconds)
    if (best, top) <= current:
        return None
    k = tied[seconds.index(top)]
    cand = candidate(k)
    if int(cand[zero]) != int(peaks[k]) or int(_square_sum(cand.reshape(-1))) != int(energies[k]):
        raise ArithmeticError("tweak update disagrees with its rebuilt correlation; move withheld")
    return k // 2, int(_STEPS[k % 2]), cand


def discretize_and_tweak(
    h,
    target_bits: int,
    objective: str = "M",
    max_iters: int = 500,
) -> TweakResult:
    """Round a real probe to a target bit depth, then greedy +/-1 tweaking.

    Scaling maps max|h| to 2^target_bits - 1 (already-integer inputs are
    taken as-is).  Each iteration scores every +/-1 single-element change by
    the exact objective (default merit factor, side-lobe ratio as
    tie-breaker) and applies the single best strictly-improving one; among
    equal scores the lowest flat index wins, +1 before -1.  The objective is
    monotone over iterations by construction.  |a_i| <= 2^target_bits - 1 is
    a hard bound: no move crosses it, though an integer input already past
    it may still move toward zero.  All moves are scored from two engine
    correlations per iteration (see ``_tweak_scan``), not one per move.
    An all-zero input raises ``ContinuumError``; one whose first move could
    take the correlation past int64 raises ``ArithmeticError`` before any cast.
    """
    if target_bits < 3:
        raise ContinuumError("target_bits must be >= 3")
    if objective not in ("M", "R"):
        raise ContinuumError(f"unknown objective {objective!r} (use 'M' or 'R')")
    if max_iters < 0:
        raise ContinuumError("max_iters must be >= 0")
    h = as_tensor(h)
    limit = 2**target_bits - 1
    peak = h.max_abs()
    if peak == 0:
        raise ContinuumError("zero-energy input: no nonzero sample to round or tweak")
    top = peak if h.mode == "int" else limit  # max|start|, and C0 >= top^2
    if _int_dtype(top * top + 2 * top + 1) is object:  # the first scan's bound, checked before any cast
        raise ArithmeticError(_PAST_INT64)
    if h.mode == "int":
        start = h.data.astype(np.int64)
    else:  # limit / peak overflows for a tiny peak; scaling by 2^-exponent first is exact
        mantissa, exponent = math.frexp(peak)
        start = np.rint(np.ldexp(h.data, -exponent) * (limit / mantissa)).astype(np.int64)

    corr = correlate(Tensor(start, "int"), Tensor(start, "int")).values.data
    zero = tuple(n - 1 for n in start.shape)

    iterations = 0
    for _ in range(max_iters):
        found = _tweak_scan(start, corr, zero, objective, limit)
        if found is None:
            break
        flat, t, corr = found
        start.reshape(-1)[flat] += t
        iterations += 1

    result = Tensor(start.copy(), "int")
    return TweakResult(result, classify(result), iterations)
