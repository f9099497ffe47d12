"""Dense exact-integer / real tensors and the aperiodic correlation engine.

Everything downstream (constructions, metrics, projections, imaging) is built
on top of the two dtype modes defined here:

* ``"int"``   — exact signed integers.  Stored as int64 whenever the worst-case
  correlation accumulator provably fits, otherwise as an object array of
  Python ints, so overflow is impossible rather than unlikely.
* ``"real"``  — float64.

Correlation convention: ``correlate(a, b)`` computes

    C(s) = sum_r a(r) * b(r + s)

over every shift with any overlap ("full" output, extent ``Na + Nb - 1`` per
axis), and the zero shift sits at flat index ``Na - 1`` along each axis.

The engine is numpy only and picks one of four paths from its operands:

* **Direct int64** — integer operands whose worst-case accumulator
  ``min(Na, Nb) * max|a| * max|b|`` fits int64 and whose flattened product
  count is at most ``_INT_DIRECT_MACS``.  Both operands are laid out with the
  row strides of the output, so one 1D ``np.correlate`` gives the whole nD
  result: index sums never reach an output extent, so no flat shift carries
  from one axis into the next.  Exact, since no partial sum can overflow.
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
  are recombined exactly (in int64 when the result is known to fit, where
  wrap-around arithmetic mod 2^64 is exact, otherwise in Python ints).
* **Real** — float64 operands go direct (one flattened ``np.correlate``) up
  to ``_REAL_DIRECT_MACS`` products and through ``rfftn`` above.

The output dtype does not depend on the path: int64 iff the worst-case
accumulator fits int64 and neither operand is an object array, otherwise an
object array of Python ints.  Every integer result also passes an O(N)
check, sum(C) == sum(a) * sum(b) in Python ints, and the engine raises
``ArithmeticError`` rather than return an array that fails it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice
from itertools import product as _iproduct
from typing import Iterable, Iterator, Sequence

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
    "dft_magnitudes",
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


def _is_int_array(arr: np.ndarray) -> bool:
    return arr.dtype.kind in "iu" or (
        arr.dtype == object and all(isinstance(v, (int, np.integer)) for v in arr.flat)
    )


@dataclass(frozen=True)
class Tensor:
    """A dense n-dimensional array tagged with a value mode.

    The mode never changes silently: integer tensors stay exact through every
    operation, and conversion to real is the explicit :meth:`to_real`.
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

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_values(values, mode: str | None = None) -> "Tensor":
        arr = np.asarray(values)
        if mode is None:
            mode = "int" if _is_int_array(arr) else "real"
        if mode == "int":
            if arr.dtype != object:
                arr = arr.astype(np.int64)
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

    def to_real(self) -> "Tensor":
        return Tensor(self.data.astype(np.float64), "real")

    def max_abs(self):
        if self.data.dtype == object:
            return max(abs(int(v)) for v in self.data.flat)
        if self.mode == "int":  # not np.abs: it wraps -2^63 to itself
            return max(-int(self.data.min()), int(self.data.max()))
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

    def __hash__(self):  # consistent with __eq__: equal values hash alike
        return hash((self.mode, self.shape, tuple(self.data.reshape(-1).tolist())))


def as_tensor(x, mode: str | None = None) -> Tensor:
    if isinstance(x, Tensor):
        return x if mode is None or x.mode == mode else Tensor.from_values(x.data, mode)
    return Tensor.from_values(x, mode)


@dataclass(frozen=True)
class CorrelationResult:
    """Full aperiodic correlation plus the headline scalar views of it.

    ``peak`` is the zero-shift value C0; ``edge`` the end/corner correlation
    (product of opposite extreme elements — only defined when the operand
    extents match); ``off_peak_max`` the largest off-peak magnitude; ``op``
    the largest magnitude that is also not one of the edge-correlation
    entries (the ends in 1D, plus the maximal-overlap diagonal tips
    (+/-m, ..., +/-m), m = (N-1)/2, when every extent is odd).
    """

    values: Tensor
    peak: object
    edge: object | None
    off_peak_max: object
    op: object
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


def _reversed(x: np.ndarray) -> np.ndarray:
    return x[(slice(None, None, -1),) * x.ndim]


def _fft_shape(out_shape: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(1 << (n - 1).bit_length() for n in out_shape)


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
    """Signed limbs d_i, x = sum_i d_i 2^(width i), |d_i| < 2^width, as float64."""
    count = max(1, -(-max_abs.bit_length() // width))
    if x.dtype == object:
        mag, sign = np.abs(x), np.sign(x).astype(np.int64)
    else:
        mag, sign = np.abs(x).astype(np.uint64), np.sign(x)  # |-2^63| fits uint64
    low = (1 << width) - 1
    return [
        (sign * ((mag >> (width * i)) & low).astype(np.int64)).astype(np.float64)
        for i in range(count)
    ]


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
    return width, _limbs(fa, width, max_a), _limbs(b, width, max_b)


def _fft_int_correlate(
    a: np.ndarray, b: np.ndarray, max_a: int, max_b: int, out_shape: tuple[int, ...], fits: bool
) -> np.ndarray:
    """Exact integer correlation from certified float FFTs of signed limbs.

    ``fits`` says the exact result fits int64; the result is int64 then and
    an object array otherwise.
    """
    shape = _fft_shape(out_shape)
    width, xs, ys = _certified_split(_reversed(a), b, max_a, max_b, 0.25 / _fft_error_factor(shape))
    spectra_b = [_spectrum(y, shape) for y in ys]
    # limb products with equal i + j share a digit; each is below 2^50 in
    # magnitude, so a digit sums them in int64 without wrapping
    digits = [np.zeros(out_shape, dtype=np.int64) for _ in range(len(xs) + len(ys) - 1)]
    for i, x in enumerate(xs):
        spectrum_a = _spectrum(x, shape)
        for j, spectrum_b in enumerate(spectra_b):
            digits[i + j] += np.rint(_fft_convolve(spectrum_a, spectrum_b, shape, out_shape)).astype(np.int64)
    if len(digits) == 1:
        return digits[0]
    if fits:  # wrap-around arithmetic mod 2^64 is exact for a result that fits
        acc = digits[-1].view(np.uint64)
        for d in reversed(digits[:-1]):
            acc = (acc << width) + d.view(np.uint64)
        return acc.view(np.int64)
    acc = digits[-1].astype(object)
    for d in reversed(digits[:-1]):
        acc = (acc << width) + d.astype(object)
    return acc


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
    x = np.asarray(a.data, dtype=np.int64) if max_a <= _INT64_MAX else a.data
    y = np.asarray(b.data, dtype=np.int64) if max_b <= _INT64_MAX else b.data
    if fits and macs <= _INT_DIRECT_MACS:
        out = _direct(x, y, out_shape)
    else:
        out = _fft_int_correlate(x, y, max_a, max_b, out_shape, fits)
    if not fits or a.data.dtype == object or b.data.dtype == object:
        out = out.astype(object)
    small = a.size * b.size * max_a * max_b <= _INT64_MAX  # bounds sum|a|, sum|b|, sum|C|
    if _exact_sum(out, small) != _exact_sum(x, small) * _exact_sum(y, small):
        raise ArithmeticError(
            f"correlation of {a.shape} x {b.shape} failed its sum check; result withheld"
        )
    return out


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
    if macs <= _REAL_DIRECT_MACS:
        return Tensor(_direct(x, y, out_shape), "real")
    shape = _fft_shape(out_shape)
    out = _fft_convolve(_spectrum(_reversed(x), shape), _spectrum(y, shape), shape, out_shape)
    return Tensor(np.ascontiguousarray(out), "real")


def _square_sum(values: np.ndarray):
    """sum(values**2) along the last axis, exact for integers.

    int64 when no partial sum can wrap, Python ints otherwise.
    """
    peak = max(-int(values.min()), int(values.max()))
    if values.dtype != object and values.shape[-1] * peak * peak <= _INT64_MAX:
        return np.einsum("...i,...i->...", values, values)
    values = values.astype(object)
    return (values * values).sum(axis=-1)


def _stacked_lags(stack: np.ndarray, out_shape: tuple[int, ...], length: int) -> np.ndarray:
    """Lags k = 0..length-1 of each int64 array's flat auto-correlation, one vector op per lag."""
    count = math.prod(stack.shape[1:])
    peak = max(-int(stack.min()), int(stack.max()))
    bound = count * peak * peak  # worst-case |C(k)|, as in _int_correlate
    dtype = np.int64 if bound <= _INT64_MAX else object
    flat = _flat(stack.astype(dtype, copy=False), out_shape)
    lags = np.empty((len(stack), length), dtype=dtype)
    for k in range(length):
        x, y = flat[:, : length - k], flat[:, k:]
        # einsum needs no temporary, but takes object arrays only from numpy 1.25
        lags[:, k] = (x * y).sum(axis=1) if dtype is object else np.einsum("ij,ij->i", x, y)
    # |sum C| <= (2L - 1) * bound and (sum a)^2 <= count * bound, so neither
    # side of the sum check wraps in int64 while that fits
    if dtype is object or (2 * length - 1) * bound > _INT64_MAX:
        lags_sum, cells = lags.astype(object), stack.astype(object)
    else:
        lags_sum, cells = lags, stack
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


@functools.lru_cache(maxsize=64)
def _edge_shift_indices(shape: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Indices of the edge-correlation entries in a full auto-correlation.

    Ends/corners (every axis at an extreme) always count; when every input
    extent is odd, the diagonal maximal-overlap tips at shifts
    (+/-m_1, ..., +/-m_n), m_i = (N_i - 1)/2, count as well.  Cached per
    shape, since every correlation of that shape needs the same set.
    """
    full = tuple(2 * n - 1 for n in shape)
    out = []
    for signs in _iproduct(*[(0, 1)] * len(shape)):
        out.append(tuple(0 if s == 0 else f - 1 for s, f in zip(signs, full)))
    if all(n % 2 == 1 for n in shape) and all(n >= 3 for n in shape):
        centre = tuple(n - 1 for n in shape)
        m = tuple((n - 1) // 2 for n in shape)
        for signs in _iproduct(*[(-1, 1)] * len(shape)):
            out.append(tuple(c + s * mi for c, s, mi in zip(centre, signs, m)))
    return tuple(sorted(set(out)))


def correlate(a, b) -> CorrelationResult:
    """Full aperiodic cross-correlation of two same-dimensionality tensors.

    Integer inputs give exact integer output.  ``peak`` is read at the zero
    shift (index ``Na-1`` per axis); the edge/op fields follow the module
    docstring conventions.
    """
    a, b = as_tensor(a), as_tensor(b)
    values = _raw_correlate(a, b)
    zero = tuple(n - 1 for n in a.shape)
    arr = values.data
    peak = arr[zero]
    same_extent = a.shape == b.shape
    edge = arr[tuple(n - 1 for n in values.shape)] if same_extent else None

    mags = _off_peak_magnitudes(arr, zero)
    off_peak_max = op = mags.max()
    if same_extent:
        for idx in _edge_shift_indices(a.shape):
            mags[idx] = 0
        op = mags.max()

    if values.mode == "int":
        peak = int(peak)
        edge = None if edge is None else int(edge)
        off_peak_max = int(off_peak_max)
        op = int(op)
    else:
        peak = float(peak)
        edge = None if edge is None else float(edge)
        off_peak_max = float(off_peak_max)
        op = float(op)
    return CorrelationResult(values, peak, edge, off_peak_max, op, zero)


def convolve(a, b) -> Tensor:
    """Full aperiodic convolution; equals ``correlate(flip(a), b).values``."""
    a, b = as_tensor(a), as_tensor(b)
    return _raw_correlate(flip(a), b)


def flip(a) -> Tensor:
    """Coordinate inversion a(-r); an involution."""
    a = as_tensor(a)
    return Tensor(np.ascontiguousarray(_reversed(a.data)), a.mode)


def outer_product(factors: Sequence) -> Tensor:
    """Outer product of 1D factors; correlation factorizes over the result."""
    factors = [as_tensor(f) for f in factors]
    if not factors:
        raise LatticeError("empty factor list")
    for f in factors:
        if f.ndim != 1:
            raise LatticeError("outer_product factors must be 1D")
    mode = "int" if all(f.mode == "int" for f in factors) else "real"
    out = factors[0].data
    for f in factors[1:]:
        out = np.multiply.outer(out, f.data)
    return Tensor.from_values(out, mode)


def dft_magnitudes(a, oversample: int = 1) -> Tensor:
    """|DFT| at the array's native size (one bin per element per dimension).

    ``oversample`` > 1 zero-pads each axis by that factor, giving a finer
    sampling of the underlying transform; the default matches the native-size
    convention used everywhere metrics are defined.
    """
    a = as_tensor(a)
    shape = tuple(int(n * oversample) for n in a.shape)
    mags = np.abs(np.fft.fftn(a.data.astype(np.float64), s=shape, axes=range(a.ndim)))
    return Tensor(mags, "real")


# ---------------------------------------------------------------------------
# text / PGM serialization


def write_text(t: Tensor, path) -> None:
    """First line: extents.  Following lines: row-major values (finite only)."""
    t = as_tensor(t)
    if t.mode == "real" and not np.isfinite(t.data.astype(np.float64)).all():
        raise LatticeError("text output needs finite values")
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in t.shape) + "\n")
        flat = t.data.reshape(-1)
        if t.mode == "int":
            vals = [str(int(v)) for v in flat]
        else:
            vals = [repr(float(v)) for v in flat]
        # one logical row per line for 2D, single line otherwise
        if t.ndim == 2:
            ncol = t.shape[1]
            for r in range(t.shape[0]):
                fh.write(" ".join(vals[r * ncol : (r + 1) * ncol]) + "\n")
        else:
            fh.write(" ".join(vals) + "\n")


def read_text(path) -> Tensor:
    """Inverse of :func:`write_text`; ``nan``, ``inf`` and overflowing reals are refused."""
    with open(path) as fh:
        header = fh.readline().split()
        shape = tuple(int(x) for x in header)
        body = fh.read().split()
    if any("." in v or "e" in v or "E" in v or v in ("inf", "-inf", "nan") for v in body):
        arr = np.array([float(v) for v in body], dtype=np.float64)
        if not np.isfinite(arr).all():
            raise LatticeError(f"{path}: text input needs finite values")
        mode = "real"
    else:
        ints = [int(v) for v in body]
        if max((abs(v) for v in ints), default=0) <= _INT64_MAX:
            arr = np.array(ints, dtype=np.int64)
        else:
            arr = np.array(ints, dtype=object)
        mode = "int"
    if len(body) != math.prod(shape):
        raise LatticeError(f"{path}: expected {math.prod(shape)} values, got {len(body)}")
    return Tensor(arr.reshape(shape), mode)


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


def read_pgm(path) -> Tensor:
    """Binary PGM; a header or payload cut short raises ``OSError``."""
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(b"P5"):
        raise LatticeError(f"{path}: not a binary PGM file")
    # header = magic, width, height, maxval — comments allowed
    fields: list[bytes] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(data):
            raise OSError(f"{path}: truncated PGM header")
        if data[pos : pos + 1] == b"#":
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise OSError(f"{path}: truncated PGM header")
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        fields.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    width, height, maxval = (int(f) for f in fields)
    dtype = ">u2" if maxval > 255 else np.uint8
    need = width * height * np.dtype(dtype).itemsize
    if len(data) - pos < need:
        raise OSError(
            f"{path}: truncated PGM payload: {max(len(data) - pos, 0)} bytes, header needs {need}"
        )
    arr = np.frombuffer(data, dtype=dtype, count=width * height, offset=pos)
    return Tensor(arr.reshape(height, width).astype(np.int64), "int")
