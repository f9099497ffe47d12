"""Dense exact-integer / real tensors and the aperiodic correlation engine.

Everything downstream (constructions, metrics, projections, imaging) is built
on top of the two dtype modes defined here:

* ``"int"``   — exact signed integers, stored as int64 or as an object array
  of Python ints by one rule: ``_int_dtype(bound)`` gives int64 when
  ``bound``, a worst-case magnitude of every value about to be computed, is
  at most 2^63 - 1, and object otherwise, so overflow is impossible rather
  than unlikely.  Every integer sum, product and sign flip outside the
  correlation engine takes its dtype from it; the engine applies it to its
  accumulator bound (below).
* ``"real"``  — float64.

Correlation convention: ``correlate(a, b)`` computes

    C(s) = sum_r a(r) * b(r + s)

over every shift with any overlap ("full" output, extent ``Na + Nb - 1`` per
axis), and the zero shift sits at flat index ``Na - 1`` along each axis.

The engine is numpy only and picks one of five paths from its operands:

* **Direct int64** — integer operands whose worst-case accumulator
  ``min(Na, Nb) * max|a| * max|b|`` fits int64 and whose flattened product
  count is at most ``_INT_DIRECT_MACS``.  Both operands are laid out with the
  row strides of the output, so one 1D ``np.correlate`` gives the whole nD
  result: index sums never reach an output extent, so no flat shift carries
  from one axis into the next.  Exact, since no partial sum can overflow.
* **Rank 1** — integer operands of two or more axes that leave the direct
  path, when one or both is an exact outer product f_0 (x) ... (x) f_(n-1).
  The test is exact and O(size): pivot on the first nonzero entry p at
  (r, c) of the operand as a matrix (axis 0 by the rest), check one other
  row and then p a == outer(a[:, c], a[r, :]) in ``_int_dtype(peak^2)``;
  the factor along axis 0 is the column over the gcd of its entries, the
  rest is divided by it exactly and factored the same way.  Both operands
  rank 1: the result is the outer product of the factors' 1D engine
  correlations, C(u (x) v, u' (x) v') = C(u, u') (x) C(v, v').  One: one
  int64 ``_direct`` pass per axis over the other operand, the axis moved
  last so the kernel is its factor's contiguous entries (reversed factors
  over the reversed operand when the rank-1 operand is the second).  Every
  pass stays within max|y| G, G = prod_i sum|f_i|; past 2^63 - 1 the
  operand is split into signed limbs of the widest width w with
  2^w G <= 2^63 - 1 and the digits are joined as in the limb split below.
  When no w >= 1 exists the FFT paths below take over.
* **Certified float FFT** — larger integer operands, correlated with
  ``rfftn`` on power-of-two padded shapes and rounded with ``rint``.
  Percival ("Rapid multiplication modulo the sum and difference of highly
  composite numbers", Math. Comp. 72, 2003) bounds the error of every entry
  of an FFT product of length 2^n by ``|a|_2 |b|_2`` times
  ``(1+e)^3n (1+e*sqrt5)^(3n+1) (1+beta)^3n - 1``, with e the float64 unit
  roundoff and beta the twiddle-factor error.  The path runs only when that
  bound, taken with two extra levels for the real-input stages of ``rfftn``
  and ``irfftn``, is below 1/4, so rounding recovers every integer.
* **Limb split** — integer operands too large for one certified FFT (and every
  big-integer operand).  Both are split into signed limbs
  ``x = sum_i d_i 2^(w i)``, ``|d_i| < 2^w``, with w chosen so that every limb
  pair passes the same bound; the limb products are exact int64 arrays and
  are recombined exactly in Python ints.
* **Real** — float64 operands go direct (one flattened ``np.correlate``) up
  to ``_REAL_DIRECT_MACS`` products and through ``rfftn`` above, padded per
  axis to the smallest 2^a 3^b 5^c at least the output extent
  (``_fast_len``).  The certified path keeps power-of-two lengths, because
  Percival's bound is proved for radix-2 transforms of length 2^n; the real
  path certifies nothing, so it takes the shorter lengths.

The output dtype does not depend on the path: ``_int_correlate`` casts every
path's result once, to int64 iff the worst-case accumulator fits int64 and
neither operand is an object array, otherwise to an object array of Python
ints.  Every integer result also passes an O(N) check, sum(C) == sum(a) *
sum(b) in Python ints, and the engine raises ``ArithmeticError`` rather than
return an array that fails it.
"""

from __future__ import annotations

import functools
import math
import os
import re
from dataclasses import dataclass
from itertools import islice
from itertools import product as _iproduct
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

__all__ = [
    "LatticeError",
    "Tensor",
    "CorrelationResult",
    "as_tensor",
    "correlate",
    "convolve",
    "flip",
    "outer_product",
    "read_text",
    "write_text",
    "read_pgm",
    "write_pgm",
]

_INT64_MAX = 2**63 - 1

# The flattened direct path costs one multiply-add per pair of flat operand
# entries, about 0.7 ns in int64 and 0.15 ns in float64 (numpy 2.4, one x86-64
# core); the padded FFT overtook it near these counts when both were timed.
_INT_DIRECT_MACS = 1 << 17
_REAL_DIRECT_MACS = 1 << 20

# Lag entries per block of stacked arrays (64 KiB of int64).  A block's
# temporaries come to about four times that; 2^15 raised a 3000-trial
# `baseline`'s peak RSS by 0.33 MB (0.85%), 2^13 by 0.06 MB, and 2^13 still
# beats the per-trial engine at every batched size timed (1D 511, 16x16).
_LAG_BLOCK = 1 << 13

# Percival's constants: e, the float64 unit roundoff, and beta, the error of
# the FFT's precomputed twiddle factors, taken generously as four units.
_UNIT_ROUNDOFF = 2.0**-53
_TWIDDLE_ERROR = 4 * _UNIT_ROUNDOFF


class LatticeError(ValueError):
    """Domain error raised for malformed tensors or incompatible operands."""


def _int_dtype(bound: int):
    """int64 when ``bound`` fits it, else object: the one exact-integer rule.

    ``bound`` must cover every value computed in the returned dtype.
    """
    return np.int64 if bound <= _INT64_MAX else object


def _peak(values: np.ndarray) -> int:
    """max|values| of an integer array as a Python int, 0 when empty (np.abs wraps -2^63)."""
    return max(-int(values.min(initial=0)), int(values.max(initial=0)))


def _is_int_array(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "iu" or (
        arr.dtype == object and all(isinstance(v, (int, np.integer)) for v in arr.flat)
    )


@dataclass(frozen=True)
class Tensor:
    """A dense n-dimensional array tagged with a value mode.

    The mode never changes silently: integer tensors stay exact through every
    operation, and conversion to real is the explicit ``as_tensor(t, "real")``.
    An ``"int"`` tensor's storage must have an integer or object dtype; only
    the dtype is checked, not each entry.
    """

    data: np.ndarray
    mode: str  # "int" | "real"

    def __post_init__(self):
        if self.mode not in ("int", "real"):
            raise LatticeError(f"unknown tensor mode {self.mode!r}")
        if self.data.size == 0:
            raise LatticeError("empty tensor")
        if any(n < 1 for n in self.data.shape):
            raise LatticeError("tensor extents must be >= 1")
        if self.data.dtype.kind not in ("iuO" if self.mode == "int" else "biuf"):
            raise LatticeError(f"{self.mode} tensor stored as {self.data.dtype}")

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_values(values, mode: str | None = None) -> "Tensor":
        arr = np.asarray(values)
        if arr.dtype.kind in "uf" and not isinstance(values, np.ndarray):
            # numpy reads Python ints >= 2^63 as uint64, or as float64 beside other ints
            exact = np.array(values, dtype=object)
            if _is_int_array(exact):
                arr = exact
        if mode is None:
            mode = "int" if _is_int_array(arr) else "real"
        if mode == "int":
            arr = arr.astype(_int_dtype(_peak(arr)))
        else:
            arr = arr.astype(np.float64)
        return Tensor(arr, mode)

    # -- views -------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def max_abs(self):
        if self.mode == "int":
            return _peak(self.data)
        return float(np.abs(self.data).max())

    def tolist(self):
        return self.data.tolist()

    def __array__(self, dtype=None):
        return np.asarray(self.data, dtype=dtype)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return (
            self.mode == other.mode
            and self.shape == other.shape
            and bool(np.array_equal(self.data, other.data))
        )


def as_tensor(x, mode: str | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x if mode is None or x.mode == mode else Tensor.from_values(x.data, mode)
    return Tensor.from_values(x, mode)


class CorrelationResult(NamedTuple):
    """Full aperiodic correlation plus the headline scalar views of it.

    ``peak`` is the zero-shift value C0; ``off_peak_max`` the largest
    off-peak magnitude.
    """

    values: Tensor
    peak: object
    off_peak_max: object
    zero_index: tuple[int, ...]


# ---------------------------------------------------------------------------
# correlation / convolution engine


def _flat_len(shape: tuple[int, ...], out_shape: tuple[int, ...]) -> int:
    """Length of an operand laid out with the row strides of ``out_shape``."""
    n = 0
    for extent, out in zip(shape, out_shape):
        n = n * out + extent - 1
    return n + 1


def _flat(x: np.ndarray, out_shape: tuple[int, ...]) -> np.ndarray:
    """``x`` in rows of the output's trailing extents, trailing zeros dropped.

    Axes ahead of the last ``len(out_shape)`` are batch axes and are kept.
    """
    if len(out_shape) == 1:
        return x
    lead, shape = x.shape[: -len(out_shape)], x.shape[-len(out_shape) :]
    grid = np.zeros(lead + (shape[0],) + out_shape[1:], dtype=x.dtype)
    grid[(Ellipsis,) + tuple(slice(0, n) for n in shape)] = x
    return grid.reshape(lead + (-1,))[..., : _flat_len(shape, out_shape)]


def _direct(a: np.ndarray, b: np.ndarray, out_shape: tuple[int, ...]) -> np.ndarray:
    return np.correlate(_flat(b, out_shape), _flat(a, out_shape), "full").reshape(out_shape)


def _fft_shape(out_shape: tuple[int, ...]) -> tuple[int, ...]:
    """Power-of-two FFT lengths for the certified integer path.

    Percival's bound is stated for radix-2 transforms of length 2^n, so the
    exact path keeps these lengths even where a 5-smooth one is shorter.
    """
    return tuple(1 << (n - 1).bit_length() for n in out_shape)


def _fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n: the real path's FFT length for extent ``n``.

    Only the real path uses it, since no error bound certifies these lengths
    (see :func:`_fft_shape`); there it cuts a 312-point axis to 320 from 512.
    """
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:  # the smallest p35 * 2^k >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _spectrum(x: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    return np.fft.rfftn(x, shape, axes=tuple(range(x.ndim)))


def _fft_convolve(fa: np.ndarray, fb: np.ndarray, shape, out_shape) -> np.ndarray:
    """Linear convolution of two ``_spectrum`` results, cropped to ``out_shape``."""
    full = np.fft.irfftn(fa * fb, shape, axes=tuple(range(len(shape))))
    return full[tuple(slice(0, n) for n in out_shape)]


def _fft_error_factor(shape: tuple[int, ...]) -> float:
    """Percival's bound on max|computed - exact| / (|a|_2 |b|_2) at ``shape``."""
    n = sum(s.bit_length() - 1 for s in shape) + 2  # + the real-input stages
    return math.expm1(
        3 * n * math.log1p(_UNIT_ROUNDOFF)
        + (3 * n + 1) * math.log1p(_UNIT_ROUNDOFF * math.sqrt(5))
        + 3 * n * math.log1p(_TWIDDLE_ERROR)
    )


def _limbs(x: np.ndarray, width: int, max_abs: int) -> list[np.ndarray]:
    """Signed limbs d_i, x = sum_i d_i 2^(width i), |d_i| < 2^width, as int64."""
    count = max(1, -(-max_abs.bit_length() // width))
    if x.dtype == object:
        mag, sign = np.abs(x), np.sign(x).astype(np.int64)
    else:
        mag, sign = np.abs(x).astype(np.uint64), np.sign(x)  # |-2^63| fits uint64
    low = (1 << width) - 1
    return [sign * ((mag >> (width * i)) & low).astype(np.int64) for i in range(count)]


def _certified_split(fa, b, max_a: int, max_b: int, limit: float):
    """(width, limbs of fa, limbs of b) whose every FFT product is certified.

    Width 0 means the whole operands, when their norms pass; otherwise the
    widest limbs whose worst case, sqrt(Na Nb) 2^(2 width), does.
    """
    if max(max_a, max_b) <= _INT64_MAX:
        x, y = fa.astype(np.float64), b.astype(np.float64)
        if np.linalg.norm(x) * np.linalg.norm(y) < limit:
            return 0, [x], [y]
    width = int(math.log2(limit / math.sqrt(fa.size * b.size)) / 2)
    if width < 1:
        raise ArithmeticError(f"no certified FFT limb width for {fa.shape} x {b.shape}")

    def floats(x, max_abs):
        return [d.astype(np.float64) for d in _limbs(x, width, max_abs)]

    return width, floats(fa, max_a), floats(b, max_b)


def _fft_int_correlate(a: np.ndarray, b: np.ndarray, max_a: int, max_b: int, out_shape: tuple[int, ...]) -> np.ndarray:
    """Exact integer correlation from certified float FFTs of signed limbs, as :func:`_join_digits` joins them."""
    shape = _fft_shape(out_shape)
    width, xs, ys = _certified_split(np.flip(a), b, max_a, max_b, 0.25 / _fft_error_factor(shape))
    spectra_b = [_spectrum(y, shape) for y in ys]
    # limb products with equal i + j share a digit; each is below 2^50 in
    # magnitude, so a digit sums them in int64 without wrapping
    digits = [np.zeros(out_shape, dtype=np.int64) for _ in range(len(xs) + len(ys) - 1)]
    for i, x in enumerate(xs):
        spectrum_a = _spectrum(x, shape)
        for j, spectrum_b in enumerate(spectra_b):
            digits[i + j] += np.rint(_fft_convolve(spectrum_a, spectrum_b, shape, out_shape)).astype(np.int64)
    return _join_digits(digits, width)


def _join_digits(digits: list[np.ndarray], width: int) -> np.ndarray:
    """sum_i digits[i] 2^(width i) of int64 digit arrays, exactly.

    A single digit is returned unchanged; two or more are joined in Python
    ints.  :func:`_int_correlate` casts the result to the engine's dtype.
    """
    if len(digits) == 1:
        return digits[0]
    acc = digits[-1].astype(object)
    for d in reversed(digits[:-1]):
        acc = (acc << width) + d.astype(object)
    return acc


def _rank1_split(m: np.ndarray, peak: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(u, v) with m = outer(u, v) and u primitive, or None unless the integer matrix is rank 1.

    ``peak`` bounds |m|.  The pivot p = m[r, c] is the first nonzero entry.
    One other row is tested against p m[r', :] == m[r', c] m[r, :] first, so
    most matrices that are not rank 1 leave after one row; then the whole of
    p m == outer(m[:, c], m[r, :]) is checked, in ``_int_dtype(peak^2)``.
    u is m[:, c] over the gcd of its entries, and v = m[r, :] / u[r] is then
    integral (z.u = 1 for some integer z, so each column's multiplier z.m[:, j]
    is an integer).
    """
    r, c = divmod(int(np.argmax(m != 0)), m.shape[1])
    dtype = _int_dtype(peak * peak)
    p, row = int(m[r, c]), m[r].astype(dtype)
    if p == 0:  # no nonzero entry
        return None
    other = (r + 1) % len(m)
    for rows in (slice(other, other + 1), slice(None)):
        block = m[rows].astype(dtype, copy=False)
        if not np.array_equal(block * p, np.multiply.outer(block[:, c], row)):
            return None
    col = m[:, c].astype(dtype)
    u = col // math.gcd(*col.tolist())
    return u, row // u[r]


def _rank1_factors(x: np.ndarray, peak: int) -> list[np.ndarray] | None:
    """Integer vectors f_i with x = f_0 (x) ... (x) f_(n-1) exactly, or None if x is not rank 1.

    Splits off one axis at a time with :func:`_rank1_split`; every factor is
    bounded by ``peak``, which bounds |x|, and is stored by ``_int_dtype``.
    """
    factors = []
    while x.ndim > 1:
        split = _rank1_split(x.reshape(len(x), -1), peak)
        if split is None:
            return None
        factors.append(split[0])
        x = split[1].reshape(x.shape[1:])
    return [f.astype(_int_dtype(_peak(f)), copy=False) for f in factors + [x]]


def _axis_correlate(f: np.ndarray, y: np.ndarray, axis: int) -> np.ndarray:
    """The 1D correlation of kernel ``f`` with every line of ``y`` along ``axis``, full length.

    One ``_direct`` pass with the axis moved last, so the flat kernel is
    ``len(f)`` contiguous entries.
    """
    lines = np.moveaxis(y, axis, -1)
    lead, n = lines.shape[:-1], lines.shape[-1] + len(f) - 1
    out = _direct(f.reshape(1, -1), lines.reshape(-1, lines.shape[-1]), (math.prod(lead), n))
    return np.moveaxis(out.reshape(lead + (n,)), -1, axis)


def _separable_correlate(factors: list[np.ndarray], y: np.ndarray, max_y: int) -> np.ndarray | None:
    """C(f_0 (x) ... (x) f_(n-1), y) by one exact int64 pass per axis, or None.

    Every pass output is bounded by max|y| G, G = prod_i sum|f_i|.  When that
    passes 2^63 - 1, y is split into signed limbs of the widest w with
    2^w G <= 2^63 - 1, each limb's passes are a digit, and the digits are
    joined as in the limb-split FFT.  None when no w >= 1 exists.
    """
    gain = math.prod(sum(map(abs, f.tolist())) for f in factors)
    if max(max_y, 1) * gain <= _INT64_MAX:  # for y = 0 too, G must fit: it bounds every kernel entry
        width, limbs = 0, [y.astype(np.int64, copy=False)]
    else:
        width = (_INT64_MAX // gain).bit_length() - 1
        if width < 1:
            return None
        limbs = _limbs(y, width, max_y)
    kernels = [f.astype(np.int64, copy=False) for f in factors]
    digits = []
    for digit in limbs:
        for axis, f in enumerate(kernels):  # the last axis last, so the result is C-contiguous
            digit = _axis_correlate(f, digit, axis)
        digits.append(digit)
    return _join_digits(digits, width)


def _rank1_correlate(x: np.ndarray, y: np.ndarray, max_x: int, max_y: int) -> np.ndarray | None:
    """The exact correlation when an operand of 2 or more axes is rank 1, else None.

    Both rank 1: :func:`outer_product` of the factors' 1D engine
    correlations, C(u (x) v, u' (x) v') = C(u, u') (x) C(v, v'); every part
    is nonzero, so its dtype bound is max|C|.  Only x rank 1:
    :func:`_separable_correlate`.  Only y rank 1: the same with the reversed
    factors of y as kernel over reversed x, which gives C(x, y) entry for
    entry.  :func:`_int_correlate` casts the result to the engine's dtype.
    """
    if x.ndim < 2:
        return None
    fx, fy = _rank1_factors(x, max_x), _rank1_factors(y, max_y)
    if fx and fy:
        return outer_product([_raw_correlate(Tensor(f, "int"), Tensor(g, "int")) for f, g in zip(fx, fy)]).data
    if fx:
        return _separable_correlate(fx, y, max_y)
    if fy:
        return _separable_correlate([f[::-1] for f in fy], np.flip(x), max_x)
    return None


def _exact_sum(x: np.ndarray, small: bool) -> int:
    """sum(x) in Python ints; ``small`` says a plain int64 sum cannot wrap."""
    if small or x.dtype == object:
        return int(x.sum())
    # |x >> 32| < 2^31 and 0 <= x & (2^32 - 1) < 2^32, so neither int64 sum wraps
    return (int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())


def _int_correlate(a: Tensor, b: Tensor, out_shape: tuple[int, ...], macs: int) -> np.ndarray:
    max_a, max_b = int(a.max_abs()), int(b.max_abs())
    # worst-case |accumulator|; it alone (with the operand dtypes) fixes the
    # output dtype, whatever path computes the values
    fits = min(a.size, b.size) * max_a * max_b <= _INT64_MAX
    x = np.asarray(a.data, dtype=_int_dtype(max_a))
    y = np.asarray(b.data, dtype=_int_dtype(max_b))
    if fits and macs <= _INT_DIRECT_MACS:
        out = _direct(x, y, out_shape)
    elif (out := _rank1_correlate(x, y, max_a, max_b)) is None:
        out = _fft_int_correlate(x, y, max_a, max_b, out_shape)
    big = not fits or a.data.dtype == object or b.data.dtype == object
    out = out.astype(object if big else np.int64, copy=False)
    small = a.size * b.size * max_a * max_b <= _INT64_MAX  # bounds sum|a|, sum|b|, sum|C|
    if _exact_sum(out, small) != _exact_sum(x, small) * _exact_sum(y, small):
        raise ArithmeticError(
            f"correlation of {a.shape} x {b.shape} failed its sum check; result withheld"
        )
    return out


def _convolver(kernel: np.ndarray, shape: tuple[int, ...]):
    """The real path: ``convolve(x, kernel)`` for float64 ``x`` of ``shape``, as float64.

    Direct up to ``_REAL_DIRECT_MACS`` flat products, else ``rfftn`` at
    ``_fast_len`` sizes.  The kernel's spectrum is computed once, so a caller
    convolving many x with one kernel (``imaging.deblur``) pays for it once;
    each product is formed in place, and x is never copied to flip it.
    """
    out_shape = tuple(m + n - 1 for m, n in zip(shape, kernel.shape))
    if _flat_len(shape, out_shape) * _flat_len(kernel.shape, out_shape) <= _REAL_DIRECT_MACS:
        return lambda x: _direct(np.flip(x), kernel, out_shape)
    fft_shape = tuple(_fast_len(n) for n in out_shape)
    spectrum = _spectrum(kernel, fft_shape)

    def convolve_fft(x: np.ndarray) -> np.ndarray:
        product = _spectrum(x, fft_shape)
        product *= spectrum
        return np.fft.irfftn(product, fft_shape, axes=tuple(range(x.ndim)))[tuple(slice(0, n) for n in out_shape)]

    return convolve_fft


def _raw_correlate(a: Tensor, b: Tensor) -> Tensor:
    """C(s) = sum_r a(r) b(r+s), full extent, mode-preserving."""
    if a.ndim != b.ndim:
        raise LatticeError(
            f"dimensionality mismatch: {a.ndim}D vs {b.ndim}D"
        )
    out_shape = tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape))
    macs = _flat_len(a.shape, out_shape) * _flat_len(b.shape, out_shape)
    if a.mode == "int" and b.mode == "int":
        return Tensor(_int_correlate(a, b, out_shape, macs), "int")
    x, y = np.asarray(a.data, dtype=np.float64), np.asarray(b.data, dtype=np.float64)
    # correlate(x, y) = convolve(flip(x), y)
    return Tensor(np.ascontiguousarray(_convolver(y, x.shape)(np.flip(x))), "real")


def _square_sum(values: np.ndarray):
    """sum(values**2) along the last axis, exact for integers.

    int64 when no partial sum can wrap, Python ints otherwise.
    """
    values = values.astype(_int_dtype(values.shape[-1] * _peak(values) ** 2), copy=False)
    return np.einsum("...i,...i->...", values, values)


def _auto_peak(t: Tensor):
    """C0 = sum(t**2), the zero shift of t's auto-correlation, without the rest.

    An exact Python int for an integer tensor, a float64 dot product for a real one.
    """
    flat = t.data.reshape(-1)
    return int(_square_sum(flat)) if t.mode == "int" else float(np.dot(flat, flat))


def _stacked_lags(stack: np.ndarray, out_shape: tuple[int, ...], length: int) -> np.ndarray:
    """Lags k = 0..length-1 of each int64 array's flat auto-correlation, one vector op per lag."""
    count = math.prod(stack.shape[1:])
    bound = count * _peak(stack) ** 2  # worst-case |C(k)|, as in _int_correlate
    dtype = _int_dtype(bound)
    flat = _flat(stack.astype(dtype, copy=False), out_shape)
    lags = np.empty((len(stack), length), dtype=dtype)
    for k in range(length):
        lags[:, k] = np.einsum("ij,ij->i", flat[:, : length - k], flat[:, k:])  # no temporary
    # |sum C| <= (2L - 1) * bound and (sum a)^2 <= count * bound <= (2L - 1) * bound,
    # so that bounds both sides of the sum check
    check = _int_dtype((2 * length - 1) * bound)
    lags_sum, cells = lags.astype(check, copy=False), stack.astype(check, copy=False)
    total = lags_sum[:, 0] + 2 * lags_sum[:, 1:].sum(axis=1)
    row_sums = cells.reshape(len(stack), -1).sum(axis=1)
    if np.any(total != row_sums * row_sums):
        raise ArithmeticError(
            f"auto-correlation of {len(stack)} stacked {stack.shape[1:]} arrays failed its "
            "sum check; result withheld"
        )
    return lags


def _auto_lags(arrays: Iterable[np.ndarray], shape: tuple[int, ...]) -> Iterator[np.ndarray]:
    """Lags C(k), k >= 0, of the full auto-correlation of each array, in blocks of rows.

    The arrays are flat int64 arrays of ``prod(shape)`` entries.  The engine
    lays an auto-correlation out flat with the output's row strides: 2L - 1
    entries, L = ``_flat_len(shape, 2*shape - 1)``, the zero shift at L - 1,
    and C(-k) = C(k).  A row of L lags therefore holds the peak C(0) and one
    of each off-peak pair C(+/-k).  While a trial's lag loop, L(L+1)/2
    products, is within ``_INT_DIRECT_MACS``, the arrays are stacked
    ``_LAG_BLOCK`` lag entries at a time and each lag is one vector op over
    the block; larger arrays go through the engine one at a time, as one-row
    blocks.  Rows are int64 when the worst-case accumulator fits, Python-int
    object arrays otherwise, and every row passes the sum check
    sum(C) = sum(a)^2 or ``ArithmeticError`` is raised.
    """
    out_shape = tuple(2 * n - 1 for n in shape)
    length = _flat_len(shape, out_shape)
    if length * (length + 1) // 2 > _INT_DIRECT_MACS:
        for x in arrays:
            t = Tensor(np.asarray(x).reshape(shape), "int")
            yield _raw_correlate(t, t).data.reshape(1, -1)[:, length - 1 :]
        return
    arrays = iter(arrays)
    row = np.dtype((np.int64, (math.prod(shape),)))
    rows = max(1, _LAG_BLOCK // length)
    while len(block := np.fromiter(islice(arrays, rows), dtype=row)):
        yield _stacked_lags(block.reshape((-1,) + shape), out_shape, length)


def _off_peak_magnitudes(values: np.ndarray, zero: tuple[int, ...]) -> np.ndarray:
    """|C| with the zero shift set to 0: its max is the off-peak max (0 for one entry)."""
    mags = np.abs(values)
    mags[zero] = 0
    return mags


def _periodic(values: np.ndarray, grid: tuple[int, ...]) -> np.ndarray:
    """A full auto-correlation (extent 2n - 1 per axis) folded onto ``grid``, m >= n per axis.

    Shift s lands at s mod m: the periodic auto-correlation of the array
    zero-padded to ``grid``, whose DFT is |DFT|^2 (Wiener-Khinchin), with the
    zero shift alone at the origin.  Exact for integers: each r pairs with one
    r' at most, so no sum leaves the engine's accumulator bound size * max|a|^2.
    """
    for m in reversed(grid):  # fold the last axis, then rotate it to the front
        n = (values.shape[-1] + 1) // 2
        out = np.zeros(values.shape[:-1] + (m,), dtype=values.dtype)
        out[..., :n] += values[..., n - 1 :]  # shifts 0 .. n-1
        out[..., m - n + 1 :] += values[..., : n - 1]  # shifts -(n-1) .. -1
        values = np.moveaxis(out, -1, 0)
    return values


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False  # cached and shared by every caller
    return x


@functools.lru_cache(maxsize=64)
def _ring(shape: tuple[int, ...]) -> np.ndarray:
    """Sorted flat indices of the entries of a ``shape`` array with some axis at an end."""
    index = np.indices(shape).reshape(len(shape), -1)
    last = np.array(shape).reshape(-1, 1) - 1
    return _frozen(np.flatnonzero(np.any((index == 0) | (index == last), axis=0)))


class EdgeSets(NamedTuple):
    """Sorted flat index sets of the full auto-correlation of one operand shape.

    ``ends``: the corners (every axis at an extreme shift) plus, when every
    extent is odd and at least 3, the maximal-overlap diagonal tips at shifts
    (+/-m_1, ..., +/-m_n), m_i = (N_i - 1)/2.  ``edge``: the outer ring plus
    those tips; ``interior``: everything off the ring; ``off_peak``:
    everything.  The last three leave out the zero shift.
    """

    ends: np.ndarray
    edge: np.ndarray
    interior: np.ndarray
    off_peak: np.ndarray


@functools.lru_cache(maxsize=64)
def _edge_sets(shape: tuple[int, ...]) -> EdgeSets:
    """The :class:`EdgeSets` of operand ``shape``; every auto-correlation of it reads these."""
    full = tuple(2 * n - 1 for n in shape)

    def flat(points) -> np.ndarray:
        return np.ravel_multi_index(np.array(list(points), dtype=np.intp).reshape(-1, len(full)).T, full)

    has_tips = all(n % 2 == 1 and n >= 3 for n in shape)
    # the zero shift N - 1 minus or plus m = (N - 1)/2, per axis
    tips = flat(_iproduct(*(((n - 1) // 2, 3 * (n - 1) // 2) for n in shape)) if has_tips else ())
    zero = flat([tuple(n - 1 for n in shape)])
    ring = np.zeros(math.prod(full), dtype=bool)
    ring[_ring(full)] = True
    ends = np.zeros_like(ring)
    ends[flat(_iproduct(*((0, f - 1) for f in full)))] = True
    edge, interior, off_peak = ring.copy(), ~ring, np.ones_like(ring)
    ends[tips] = edge[tips] = True
    edge[zero] = interior[zero] = off_peak[zero] = False
    return EdgeSets(*(_frozen(np.flatnonzero(entries)) for entries in (ends, edge, interior, off_peak)))


def correlate(a, b) -> CorrelationResult:
    """Full aperiodic cross-correlation of two same-dimensionality tensors.

    Integer inputs give exact integer output.  ``peak`` is read at the zero
    shift (index ``Na-1`` per axis).
    """
    a, b = as_tensor(a), as_tensor(b)
    values = _raw_correlate(a, b)
    zero = tuple(n - 1 for n in a.shape)
    scalar = int if values.mode == "int" else float
    off_peak_max = _off_peak_magnitudes(values.data, zero).max()
    return CorrelationResult(values, scalar(values.data[zero]), scalar(off_peak_max), zero)


def convolve(a, b) -> Tensor:
    """Full aperiodic convolution; equals ``correlate(flip(a), b).values``."""
    a, b = as_tensor(a), as_tensor(b)
    return _raw_correlate(flip(a), b)


def flip(a) -> Tensor:
    """Coordinate inversion a(-r); an involution."""
    a = as_tensor(a)
    return Tensor(np.ascontiguousarray(np.flip(a.data)), a.mode)


def outer_product(factors: Sequence) -> Tensor:
    """Outer product of 1D factors; correlation factorizes over the result.

    Exact for integer factors: int64 when the product of their max(1, max|f|),
    which bounds every factor and partial product, fits; Python ints otherwise.
    """
    factors = [as_tensor(f) for f in factors]
    if not factors:
        raise LatticeError("empty factor list")
    for f in factors:
        if f.ndim != 1:
            raise LatticeError("outer_product factors must be 1D")
    mode = "int" if all(f.mode == "int" for f in factors) else "real"
    dtype = _int_dtype(math.prod(max(1, f.max_abs()) for f in factors)) if mode == "int" else np.float64
    out = factors[0].data.astype(dtype)
    for f in factors[1:]:
        out = np.multiply.outer(out, f.data.astype(dtype))
    return Tensor(out, mode)


# ---------------------------------------------------------------------------
# text / PGM serialization


def write_text(t: Tensor, path) -> None:
    """Write ``t`` as text, one output row at a time.

    Line 1 holds the extents, space-separated.  The values follow in
    row-major order, separated by single spaces: one line per row for a 2D
    tensor, a single line otherwise.  An integer is written as ``str`` of the
    Python int, a real as ``repr`` of the Python float (the shortest text
    that reads back to the same float64); reals must be finite.
    """
    t = as_tensor(t)
    if t.mode == "real":
        data, fmt = t.data.astype(np.float64, copy=False), repr
        if not np.isfinite(data).all():
            raise LatticeError("text output needs finite values")
    else:  # object storage may hold numpy integers or bools, which print as ints only via int()
        data, fmt = t.data, str if t.data.dtype.kind in "iu" else (lambda v: str(int(v)))
    sep = "\n" if t.ndim == 2 else " "
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in t.shape) + "\n")
        for i, row in enumerate(data.reshape(-1, t.shape[-1] if t.ndim else 1)):
            fh.write((sep if i else "") + " ".join(map(fmt, row.tolist())))
        fh.write("\n")


def read_text(path) -> Tensor:
    """Inverse of :func:`write_text`.

    Line 1 gives the extents; every whitespace-separated token after it is
    one value in row-major order, however it is split into lines.  If any
    token contains ``.``, ``e`` or ``E`` or is ``inf``, ``-inf`` or ``nan``,
    every token is read with ``float`` and the tensor is real; a non-finite
    value is refused.  Otherwise every token is read with ``int`` (so ``+7``,
    ``007`` and ``1_000`` are integers) and the tensor is exact: int64 when
    every value lies within +/-(2^63 - 1), Python ints otherwise.  A token
    that neither reads raises ``ValueError``, and a token count other than
    the product of the extents raises :class:`LatticeError`.

    The values are first parsed from blocks of about ``_TEXT_BLOCK``
    characters into one preallocated int64 array, so the file's tokens are
    never all held at once, even when they share one line (1D and 3D files).
    If that fails (a token int64 cannot hold, a value of -2^63, a count other
    than the extents' product), the whole body is read again by the rules
    above.
    """
    with open(path) as fh:
        shape = tuple(int(x) for x in fh.readline().split())
        count = math.prod(shape)
        # every value takes at least one byte, so no larger count can match
        if 0 < count <= os.fstat(fh.fileno()).st_size and (arr := _int64_blocks(fh, count)) is not None:
            return Tensor(arr.reshape(shape), "int")
        fh.seek(0)
        fh.readline()
        body = fh.read().split()
    if any("." in v or "e" in v or "E" in v or v in ("inf", "-inf", "nan") for v in body):
        arr = np.array([float(v) for v in body], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise LatticeError(f"{path}: text input needs finite values")
        mode = "real"
    else:
        ints = [int(v) for v in body]
        arr = np.array(ints, dtype=_int_dtype(max(map(abs, ints), default=0)))
        mode = "int"
    if len(body) != math.prod(shape):
        raise LatticeError(f"{path}: expected {math.prod(shape)} values, got {len(body)}")
    return Tensor(arr.reshape(shape), mode)


_TEXT_BLOCK = 1 << 14  # characters read at a time by _int64_blocks


def _int64_blocks(fh, count: int) -> np.ndarray | None:
    """The rest of ``fh`` as ``count`` int64 values, or None.

    Each block's tokens are parsed with one ``np.array(..., dtype=np.int64)``
    straight into the result.  None if a token does not parse, a value is
    -2^63 (which ``_int_dtype`` stores as object) or the count differs.
    """
    arr, filled, carry = np.empty(count, dtype=np.int64), 0, ""
    while True:
        block = fh.read(_TEXT_BLOCK)
        tokens = (carry + block).split()
        # a block that ends inside a token hands that token on to the next block
        carry = tokens.pop() if block and not block[-1].isspace() else ""
        if filled + len(tokens) > count:
            return None
        try:
            arr[filled : filled + len(tokens)] = np.array(tokens, dtype=np.int64)
        except (ValueError, OverflowError):
            return None
        filled += len(tokens)
        if not block:
            return arr if filled == count and arr.min() != -_INT64_MAX - 1 else None


def write_pgm(t: Tensor, path, maxval: int = 255) -> None:
    """Write a 2D tensor as binary PGM (8-bit for maxval<=255 else 16-bit)."""
    t = as_tensor(t)
    if t.ndim != 2:
        raise LatticeError("PGM output requires a 2D tensor")
    if maxval not in (255, 65535):
        raise LatticeError("maxval must be 255 or 65535")
    arr = t.data.astype(np.float64)
    if not np.isfinite(arr).all():
        raise LatticeError("PGM output needs finite values")
    lo, hi = arr.min(), arr.max()
    if t.mode == "int" and lo >= 0 and hi <= maxval:
        scaled = t.data.astype(np.uint16 if maxval > 255 else np.uint8)
    else:
        span = (hi - lo) or 1.0
        scaled = np.round((arr - lo) / span * maxval)
        scaled = scaled.astype(np.uint16 if maxval > 255 else np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n%d\n" % (t.shape[1], t.shape[0], maxval))
        if maxval > 255:
            fh.write(scaled.astype(">u2").tobytes())
        else:
            fh.write(scaled.tobytes())


# magic, width, height, maxval, each after whitespace and # comments; re compiles it at the first read
_PGM_HEADER = rb"P5" + rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)(?!\S)" * 3


def read_pgm(path) -> Tensor:
    """Binary PGM; a header or payload cut short raises ``OSError``, an
    impossible one (size below 1, maxval outside 1..65535, a sample above it) ``LatticeError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise LatticeError(f"{path}: not a binary PGM file")
    if (header := re.match(_PGM_HEADER, data)) is None:
        raise OSError(f"{path}: truncated PGM header")
    width, height, maxval = (int(f) for f in header.groups())
    pos = header.end() + 1  # single whitespace after maxval
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise LatticeError(f"{path}: impossible PGM header: {width} x {height}, maxval {maxval}")
    dtype = ">u2" if maxval > 255 else np.uint8
    need = width * height * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise OSError(
            f"{path}: truncated PGM payload: {max(len(data) - pos, 0)} bytes, header needs {need}"
        )
    arr = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
    if arr.max() > maxval:
        raise LatticeError(f"{path}: PGM sample {arr.max()} above maxval {maxval}")
    return Tensor(arr.reshape(height, width).astype(np.int64), "int")
