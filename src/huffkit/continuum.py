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
the chosen quality metric.  One exact rule scores every move of either
objective from the walk's carried correlations (``_Walk``, ``_tweak_scan``,
``_off_peak_maxima``), checked by sums, a rebuild and a final engine run.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Mapping, NamedTuple

import numpy as np

from . import _LAZY
from .lattice import (
    CorrelationResult,
    Tensor,
    _exact_sum,
    _flat,
    _int_dtype,
    _off_peak_magnitudes,
    _periodic,
    _square_sum,
    as_tensor,
    convolve,
    correlate,
)
from .metrics import QualityReport, _report

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

# Entries per temporary of ``_off_peak_maxima`` (1 MiB of int64), so a large
# 2D probe with small side lobes never holds one correlation per move.
_CHUNK = 1 << 17

_STEPS = np.array([1, -1])  # move k is (flat index k // 2, _STEPS[k % 2])

_PAST_INT64 = "a +/-1 move would take the auto-correlation past int64"


def _by_move(plus: np.ndarray, minus: np.ndarray) -> np.ndarray:
    """One value per move, in move order, from each entry's values for t = +1 and t = -1."""
    return np.concatenate((plus[:, None], minus[:, None]), axis=1).reshape(-1)


def _ratio(num: int, den: int):
    return math.inf if den == 0 else Fraction(num, den)


def _total(x: np.ndarray, bound: int) -> int:
    """sum(x) as a Python int, given max|x| <= bound."""
    return _exact_sum(x, _int_dtype(x.size * bound) is np.int64)


def _engine_state(a: np.ndarray):
    """From the engine: C = a correlated with a, D = flat C correlated with flat a, S = a convolved with a."""
    t = Tensor(np.ascontiguousarray(a), "int")
    c = correlate(t, t)
    d = correlate(Tensor(c.values.data.reshape(-1), "int"), Tensor(_flat(t.data, c.values.shape), "int"))
    return c, d.values.data, convolve(t, t).data


_WALK_BYTES = 8 * (3 + 2 + 3 + 2)  # per sample of a 1-D input, all int64: buffer 3n, C 2n, D 3n, S 2n


class _Walk:
    """What the greedy walk carries from move to move, for the integer array ``a``.

    It runs in the engine's flat layout (``lattice._flat``), a's rows strided
    by C's extents 2n - 1, where one 1-D correlation equals the n-D one: flat
    a has m = (|C| + 1) / 2 entries, a's entry i at ``cells[i]``, and sits at
    [m - 1, 2m - 1) of the zero ``buffer`` (3m - 2), of which ``a`` is an n-D
    view.  ``corr`` is C = a correlated with a and ``s`` is S = a convolved
    with a (n-D, 2m - 1 entries flat, zero shift at ``zero``); ``d`` is
    D = flat C correlated with flat a (3m - 2), D(m - 1 + cells[i]) =
    sum_s C(s) a(i + s).  Each is in ``_int_dtype`` of its bound: |C|, |S| <=
    c0, |D| <= c0 * sum|a|.  ``energy`` is sum C^2 and ``maxoff`` the off-peak
    max |C|.  The engine builds all of it once; ``advance`` updates it exactly.
    """

    def __init__(self, start: np.ndarray):
        c, d, s = _engine_state(start)
        corr, m = c.values.data, c.values.size // 2 + 1
        box = tuple(map(slice, start.shape))
        self.buffer = np.zeros(3 * m - 2, dtype=np.int64)
        self.flat = self.buffer[m - 1 : 2 * m - 1]
        self.a = self.buffer[m - 1 :].reshape(corr.shape)[box]
        self.a[...] = start
        self.cells = np.arange(corr.size).reshape(corr.shape)[box].reshape(-1)
        self.zero, self.maxoff, self.abs_sum = c.zero_index, c.off_peak_max, int(np.abs(start).sum())
        self.corr = corr.astype(_int_dtype(c.peak), copy=False)
        self.d = d.astype(_int_dtype(c.peak * self.abs_sum), copy=False)
        self.s = np.ascontiguousarray(s, dtype=_int_dtype(c.peak))  # updated through its flat view
        self.energy = int(_square_sum(self.corr.reshape(-1)))

    def advance(self, move: "_Move") -> None:
        """Apply a_p += t, p = cells[i], to every carried value; each update reads the old values.

        With x@o for flat x added into the slice that starts at o, and a flat:

            C' = C + t*a@(m-1-p) + t*flip(a)@p + delta@(m-1)   (the scan's rebuilt C')
            S' = S + 2t*a@p + delta@(2p)
            D' = D + t*(C + C')@p + t*S@(m-1-p) + a@(m-1)

        The last is D + 2t*C@p + t*S@(m-1-p) + a@(m-1) + t*(C' - C)@p, since
        flip(C) = C makes D = C convolved with a.  c0', E' and the off-peak
        max are those of the winner's rebuilt C', checked against its scores.
        Raises ``ArithmeticError`` unless sum D' = sum C' * sum a' and
        sum S' = (sum a')^2, the engine's own check.
        """
        a, p, t, new = self.flat, int(self.cells[move.flat]), move.t, move.corr
        m, s = a.size, self.s.reshape(-1)
        c0, c0_new = int(self.corr[self.zero]), int(new[self.zero])
        # every partial sum of D' is within c0 * sum|a| + |C + C'| + |S| + max|a| <= this
        d = self.d.astype(_int_dtype(max(c0, c0_new) * (self.abs_sum + 4)), copy=False)
        d[p : p + 2 * m - 1] += t * (self.corr.astype(d.dtype, copy=False) + new).reshape(-1)
        d[m - 1 - p : 3 * m - 2 - p] += t * s
        d[m - 1 : 2 * m - 1] += a
        s[p : p + m] += 2 * t * a  # within c0 + 2 max|a| + 1, which the scan bounded
        s[2 * p] += 1
        self.abs_sum += abs(int(a[p]) + t) - abs(int(a[p]))
        a[p] += t
        self.corr, self.energy, self.maxoff = new, move.energy, move.maxoff
        self.d = d.astype(_int_dtype(c0_new * self.abs_sum), copy=False)
        total = _total(a, c0_new)
        if (_total(s, c0_new) != total * total
                or _total(self.d, c0_new * self.abs_sum) != _total(new, c0_new) * total):
            raise ArithmeticError("the tweak's carried correlations failed their sum check; result withheld")

    def check(self) -> CorrelationResult:
        """The engine's C of ``a``, run afresh; ``ArithmeticError`` unless it, D and S equal the carried ones."""
        c, d, s = _engine_state(self.a)
        if not all(map(np.array_equal, (c.values.data, d, s), (self.corr, self.d, self.s))):
            raise ArithmeticError("the tweak's carried correlations disagree with the engine's; result withheld")
        return c


class _Move(NamedTuple):
    """The scan's winner a_flat += t, its rebuilt C', and that C''s energy and off-peak max."""

    flat: int
    t: int
    corr: np.ndarray
    energy: int
    maxoff: int


def _off_peak_maxima(walk: _Walk, moves: np.ndarray, amax: int) -> np.ndarray:
    """Off-peak max |C'| of each of ``moves``, read on the candidate shifts T alone; amax = max|a|.

    T = {s != 0 : |C(s)| >= maxoff - 4*max|a|} holds every C''s off-peak max:
    off the zero shift a move adds t*g_p(s), |g_p(s)| = |a(p+s) + a(p-s)| <= 2*max|a|,
    so the shift holding maxoff keeps |C'| >= maxoff - 2*max|a|, and every shift
    outside T stays below that.  Where side lobes are small, T is every shift but
    zero.  C' is symmetric, so half of T will do.  Blocks hold <= ``_CHUNK`` entries.
    """
    corr, buffer = walk.corr.reshape(-1), walk.buffer
    past = corr.size // 2 + 1  # the zero shift is C's centre: keep only the shifts past it
    shifts = past + np.flatnonzero(np.abs(corr[past:]) >= walk.maxoff - 4 * amax)
    # flat C's entry u is shift s = u - (m - 1), so a(p + s) is buffer[p + u] and a(p - s) buffer[p + 2m - 2 - u]
    mirror, values = corr.size - 1 - shifts, corr[shifts]
    out = np.empty(len(moves), dtype=np.int64)
    step = max(1, _CHUNK // max(1, shifts.size))
    for lo in range(0, len(moves), step):
        k = moves[lo : lo + step, None]
        p = walk.cells[k // 2]
        g = buffer[p + shifts] + buffer[p + mirror]
        out[lo : lo + step] = np.abs(values + _STEPS[k % 2] * g).max(axis=1, initial=0)
    return out


def _top(num: np.ndarray, den: np.ndarray, moves: np.ndarray):
    """(exact max of num/den over ``moves``, the moves reaching it, ascending).

    The ratio is inf where den == 0.  Float ratios pick the shortlist that the
    exact ratios then decide.  ``_tweak_scan`` keeps every c0' below 2^63, so
    num <= c0'^2 < 2^126 and den <= E' <= |C| * c0'^2 < 2^189 convert to float64.
    """
    n, d = num[moves].astype(np.float64), den[moves].astype(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = np.where(d == 0, np.inf, n / d)
    moves = moves[q >= q.max() * (1 - _SHORTLIST_MARGIN)]
    keys = [_ratio(int(num[k]), int(den[k])) for k in moves]
    best = max(keys)
    return best, [int(k) for k, key in zip(moves, keys) if key == best]


def _tweak_scan(walk: _Walk, name: str, limit: int) -> _Move | None:
    """Best single +/-1 move of the walk's array, or None.

    Every move a_i -> a_i + t, flat a_p with p = cells[i], is scored from the
    carried state: its correlation is C' = C + t*g_p + delta with
    g_p(s) = a(p+s) + a(p-s) on flat a, so

        c0' = c0 + 2t*a_p + 1
        E'  = sum C'^2 = E + 4*c0 + 2*S(2p) + 1 + 4t*(D(m-1+p) + a_p)

    with D and S read flat; its off-peak max comes from ``_off_peak_maxima``.
    Moves with |a_i + t| > limit are left out unless they bring a_i toward zero.
    One rule serves both objectives, M = c0'^2 / (E' - c0'^2) and
    R = c0' / off-peak max |C'|, exactly: ``name`` only picks which is
    primary.  ``_top`` keeps the moves that reach the best primary, then
    those that reach the best secondary, and the lowest move index (flat
    index, +1 before -1) wins if it beats the current array.  A score is
    read only where the rule needs it: the primary for every move, the
    secondary for tied moves where it decides (several tie, or the best only
    equals the current primary).  The winner's C' is rebuilt and must show
    every score it was read with, or ``ArithmeticError`` is raised.
    """
    a, zero = walk.a.reshape(-1), walk.zero
    c0 = int(walk.corr[zero])
    amax = int(np.abs(a).max())
    if _int_dtype(c0 + 2 * amax + 1) is object:  # bounds every |C'(s)| by Cauchy-Schwarz
        raise ArithmeticError(_PAST_INT64)
    base = walk.energy + 4 * c0 + 1
    dtype = _int_dtype(base + 2 * c0 + 4 * (c0 * walk.abs_sum + amax))  # |S| <= c0, |D| <= c0 * sum|a|
    d = walk.d[walk.flat.size - 1 + walk.cells].astype(dtype, copy=False)
    s = walk.s.reshape(-1)[2 * walk.cells].astype(dtype, copy=False)
    x = a.astype(dtype, copy=False)
    peak, energy, change = c0 + 1 + 2 * x, base + 2 * s, 4 * (d + x)
    peaks, energies = _by_move(peak, peak - 4 * x), _by_move(energy + change, energy - change)
    squares = peaks * peaks
    maxoff = np.zeros(peaks.size, dtype=np.int64)  # filled in for the moves whose R the rule reads
    scores = {"M": (squares, energies - squares), "R": (peaks, maxoff)}
    now = {"M": _ratio(c0 * c0, walk.energy - c0 * c0), "R": _ratio(c0, walk.maxoff)}

    # |a_i + t| <= limit or |a_i + t| < |a_i| fails exactly when t*a_i >= limit;
    # one t has t*a_i <= 0, so no entry loses both moves
    moves = np.flatnonzero(_by_move(a < limit, -a < limit))
    order = (name, "R" if name == "M" else "M")
    keys = []
    for objective in order:
        if objective == "R":
            maxoff[moves] = _off_peak_maxima(walk, moves, amax)
        key, winners = _top(*scores[objective], moves)
        keys.append(key)
        moves = np.array(winners)
        if key < now[objective] or (key > now[objective] and len(moves) == 1):
            break  # this score alone decides
    read = order[: len(keys)]
    if keys <= [now[objective] for objective in read]:
        return None
    k, t = int(moves[0]), int(_STEPS[moves[0] % 2])
    p = walk.cells[k // 2]
    w = walk.buffer[p : p + walk.corr.size]  # a(p + s) at flat C's entry for shift s
    cand = walk.corr + t * (w + w[::-1]).reshape(walk.corr.shape)
    cand[zero] += 1
    energy = int(_square_sum(cand.reshape(-1)))
    off = int(_off_peak_magnitudes(cand, zero).max())
    if (int(cand[zero]), energy) != (int(peaks[k]), int(energies[k])) or ("R" in read and off != maxoff[k]):
        raise ArithmeticError("tweak update disagrees with its rebuilt correlation; move withheld")
    return _Move(k // 2, t, cand, energy, off)


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
    it may still move toward zero.  One rule scores all moves from the state
    the walk carries (``_Walk``, ``_tweak_scan``); the objective only picks
    which exact score ranks first.  A move's off-peak max is read only where
    |C(s)| >= maxoff - 4*max|a| (``_off_peak_maxima``), exactly: a move
    changes C(s), s != 0, by at most 2*max|a|, so no other shift can pass
    the one holding maxoff.  The engine computes C, D and S once, each move
    updates them exactly in O(size) and checks their sums, and when the walk
    stops the engine computes them again, its C giving the report.  A
    disagreement raises ``ArithmeticError`` and no result is returned.  An
    all-zero input raises ``ContinuumError``; one whose first move could take
    the correlation past int64 raises ``ArithmeticError`` before any cast.
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

    walk, iterations = _Walk(start), 0
    while iterations < max_iters and (move := _tweak_scan(walk, objective, limit)) is not None:
        walk.advance(move)
        iterations += 1
    result = Tensor(walk.a.copy(), "int")
    return TweakResult(result, _report(result, walk.check()), iterations)
