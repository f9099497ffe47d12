"""The correlation engine's paths against the shift-and-sum oracle.

Tests marked with PATHS run twice: with the engine's own direct/FFT
thresholds, and with both at zero so that every call takes an FFT path
(certified FFT or limb split for integers) even at oracle-friendly sizes.
"""

import math
import random
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, strategies as st

from huffkit import lattice
from huffkit.imaging import deblur, encode
from huffkit.lattice import Tensor, correlate, outer_product

from conftest import oracle_correlate

INT64_MAX = 2**63 - 1


PATHS = pytest.mark.parametrize("fft_only", [False, True], ids=["own-threshold", "fft-only"])


@contextmanager
def _paths(fft_only):
    with pytest.MonkeyPatch.context() as mp:
        if fft_only:
            mp.setattr(lattice, "_INT_DIRECT_MACS", 0)
            mp.setattr(lattice, "_REAL_DIRECT_MACS", 0)
        yield


def _operand(seed, shape, bits, as_object):
    gen = random.Random(seed)
    values = [gen.randrange(-(2**bits) + 1, 2**bits) for _ in range(math.prod(shape))]
    fits = all(abs(v) <= INT64_MAX for v in values)
    arr = np.array(values, dtype=object if as_object or not fits else np.int64)
    return Tensor(arr.reshape(shape), "int")


def _expected_dtype(a, b):
    bound = min(a.size, b.size) * int(a.max_abs()) * int(b.max_abs())
    wide = bound > INT64_MAX or a.data.dtype == object or b.data.dtype == object
    return np.dtype(object) if wide else np.dtype(np.int64)


def _check_exact(a, b):
    got = correlate(a, b).values.data
    assert got.dtype == _expected_dtype(a, b)
    assert np.array_equal(got.astype(object), oracle_correlate(a.data, b.data))


@st.composite
def int_pairs(draw):
    ndim = draw(st.integers(1, 3))
    extent = {1: 9, 2: 5, 3: 3}[ndim]
    shapes = [tuple(draw(st.integers(1, extent)) for _ in range(ndim)) for _ in range(2)]
    return [
        _operand(draw(st.integers(0, 2**32)), shape, draw(st.integers(1, 100)), draw(st.booleans()))
        for shape in shapes
    ]


@PATHS
@given(int_pairs())
def test_integer_paths_match_oracle(fft_only, pair):
    with _paths(fft_only):
        _check_exact(*pair)


@PATHS
@pytest.mark.parametrize("extra", [0, 1])
@pytest.mark.parametrize("sign", [1, -1])
def test_dtype_rule_at_int64_limit(fft_only, extra, sign):
    """Bound exactly 2^63 - 1 stays int64 and reaches it; one more goes object."""
    top = INT64_MAX // 49
    assert top * 49 == INT64_MAX
    a = Tensor(np.full(7, 7, dtype=np.int64), "int")
    b = Tensor(np.full(9, sign * (top + extra), dtype=np.int64), "int")
    with _paths(fft_only):
        c = correlate(a, b)
        _check_exact(a, b)
    assert c.values.data.dtype == (object if extra else np.int64)
    assert c.peak == sign * (INT64_MAX + 49 * extra)


def test_int64_limit_past_the_direct_threshold():
    """Bound exactly 2^63 - 1 on sizes the engine sends to the limb split."""
    top = INT64_MAX // 49
    a = Tensor(np.full(7, 7, dtype=np.int64), "int")
    b = Tensor(np.full(30_000, top, dtype=np.int64), "int")
    assert a.size * b.size > lattice._INT_DIRECT_MACS
    got = correlate(a, b).values.data
    assert got.dtype == np.int64
    assert np.array_equal(got.astype(object), np.correlate(b.data.astype(object), a.data.astype(object), "full"))
    assert got.max() == INT64_MAX


@pytest.mark.parametrize("scale", [0.99, 1.01])
def test_fft_certification_threshold(monkeypatch, scale):
    """Just under Percival's bound one FFT runs; just over, the limbs do."""
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    limbs = []
    split = lattice._limbs
    monkeypatch.setattr(lattice, "_limbs", lambda *args: limbs.append(args) or split(*args))
    n = 5
    limit = 0.25 / lattice._fft_error_factor(lattice._fft_shape((2 * n - 1,)))
    value = int(math.sqrt(scale * limit / n))  # |a|_2 |b|_2 = n value^2
    signs = np.array([1, -1, 1, 1, -1])
    a = Tensor(signs * value, "int")
    b = Tensor(signs[::-1] * value, "int")
    _check_exact(a, b)
    assert bool(limbs) == (scale > 1)


def test_fft_error_at_the_bound_is_an_order_below_one_quarter():
    """Unrounded FFT products at 0.99 of the bound: random and constant operands."""
    n = 400
    shape = lattice._fft_shape((2 * n - 1,))
    limit = 0.25 / lattice._fft_error_factor(shape)
    value = int(math.sqrt(0.99 * limit / n))
    rng = np.random.default_rng(3)
    for a, b in [(rng.choice([-value, value], n), rng.choice([-value, value], n)),
                 (np.full(n, value), np.full(n, value))]:
        fa, fb = lattice._spectrum(a[::-1].astype(float), shape), lattice._spectrum(b.astype(float), shape)
        unrounded = lattice._fft_convolve(fa, fb, shape, (2 * n - 1,))
        exact = np.correlate(b.astype(object), a.astype(object), "full")
        error = max(abs(float(u) - int(e)) for u, e in zip(unrounded, exact))
        assert error < 1 / 16, error


@pytest.mark.parametrize("shape", [(4,), (3, 4), (2, 3, 2)])
def test_limb_split_on_big_integers(shape):
    rng = np.random.default_rng(len(shape))
    for bits in (40, 64, 130):
        a = Tensor(rng.integers(-9, 10, shape).astype(object) * 2**bits + 1, "int")
        b = Tensor(rng.integers(-9, 10, shape[::-1]).astype(object) * 2**bits - 3, "int")
        _check_exact(a, b)


def test_int64_storage_past_the_bound_goes_object():
    """Operands stored as int64 whose accumulator could overflow: exact object output."""
    a = Tensor(np.array([[2**40, -(2**41)], [3, 2**39]], dtype=np.int64), "int")
    b = Tensor(np.array([[2**41, 5, -(2**40)]], dtype=np.int64), "int")
    _check_exact(a, b)


def test_int64_minimum_counts_at_full_magnitude():
    a = Tensor(np.array([-(2**63), 3], dtype=np.int64), "int")
    assert a.max_abs() == 2**63
    _check_exact(a, Tensor.from_values([2]))


def test_big_outer_product_autocorrelation_factorizes():
    """The 63-sample Fibonacci outer product's values leave int64: limb path, exact."""
    from huffkit.construct import fibonacci_huffman

    f = fibonacci_huffman(63, 2)
    c2 = correlate(outer_product([f, f]), outer_product([f, f])).values.data
    c1 = np.array(correlate(f, f).values.data, dtype=object)
    assert c2.dtype == object
    assert np.array_equal(c2, np.multiply.outer(c1, c1))


def test_sum_check_withholds_a_wrong_result(monkeypatch):
    original = lattice._direct

    def off_by_one(a, b, out_shape):
        out = original(a, b, out_shape)
        out.reshape(-1)[0] += 1
        return out

    monkeypatch.setattr(lattice, "_direct", off_by_one)
    with pytest.raises(ArithmeticError):
        correlate([1, 2, 3], [4, 5])


@st.composite
def real_pairs(draw):
    ndim = draw(st.integers(1, 3))
    extent = {1: 12, 2: 6, 3: 4}[ndim]
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    scale = 10.0 ** draw(st.integers(-3, 6))
    return [
        Tensor(rng.normal(size=tuple(draw(st.integers(1, extent)) for _ in range(ndim))) * scale, "real")
        for _ in range(2)
    ]


@PATHS
@given(real_pairs())
def test_real_paths_within_rounding_of_oracle(fft_only, pair):
    a, b = pair
    with _paths(fft_only):
        got = correlate(a, b).values.data
    want = oracle_correlate(a.data, b.data).astype(np.float64)
    assert np.abs(got - want).max() <= _real_tolerance(a.data, b.data, got.shape)


def _real_tolerance(a, b, out_shape):
    """|a|_2 |b|_2 eps, times 8 (log2 of the real FFT's point count + 2)."""
    points = math.prod(lattice._fast_len(n) for n in out_shape)
    return 8 * np.finfo(np.float64).eps * (math.log2(points) + 2) * np.linalg.norm(a) * np.linalg.norm(b)


def _five_smooth(n):
    for p in (2, 3, 5):
        while n % p == 0:
            n //= p
    return n == 1


def test_fast_len_is_the_next_five_smooth_number():
    smooth = [n for n in range(1, 5000) if _five_smooth(n)]
    for n in range(1, 4097):
        assert lattice._fast_len(n) == next(m for m in smooth if m >= n)


@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((200,), (113,)), ((50, 40), (45, 58)), ((10, 7, 12), (9, 8, 4))],
    ids=["312", "94x97", "18x14x15"],
)
def test_real_fft_at_five_smooth_sizes_matches_direct(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a))
    a, b = rng.normal(size=shape_a), rng.normal(size=shape_b) * 1e3
    out_shape = tuple(m + n - 1 for m, n in zip(shape_a, shape_b))
    assert any(lattice._fast_len(n) < lattice._fft_shape((n,))[0] for n in out_shape)
    with _paths(fft_only=True):
        got = correlate(Tensor(a, "real"), Tensor(b, "real")).values.data
    want = lattice._direct(a, b, out_shape)
    assert np.abs(got - want).max() <= _real_tolerance(a, b, out_shape)


def _oracle_deblur(blurred, mask, p):
    """deblur's recursion with every convolution done by the oracle."""
    def conv(x, y):
        return oracle_correlate(x[(slice(None, None, -1),) * x.ndim], y).astype(np.float64)

    auto = oracle_correlate(mask, mask).astype(np.float64)
    zero = tuple(n - 1 for n in mask.shape)
    c0 = auto[zero]
    auto[zero] = 0.0
    o1 = conv(blurred, mask) / c0
    same = tuple(slice((n - 1) // 2, (n - 1) // 2 + m) for n, m in zip(auto.shape, o1.shape))
    o = o1
    for _ in range(p - 1):
        o = o1 - conv(o, auto)[same] / c0
    crop = tuple(slice(m - 1, m - 1 + b - m + 1) for b, m in zip(blurred.shape, mask.shape))
    return o[crop]


@PATHS
@pytest.mark.parametrize("ndim", [1, 2])
def test_deblur_same_crop_matches_oracle(fft_only, ndim):
    h3 = np.array([1, 2, -1])
    rng = np.random.default_rng(ndim)
    if ndim == 1:
        mask, obj = h3, rng.integers(0, 256, 20)
    else:
        mask, obj = np.multiply.outer(h3, h3), rng.integers(0, 256, (6, 7))
    blurred = encode(obj, mask).data
    with _paths(fft_only):
        result = deblur(blurred, mask, iterations=3)
    want = _oracle_deblur(blurred, mask, 3)
    assert not result.diverged
    assert np.allclose(result.estimate.data, want, rtol=0, atol=1e-9 * np.abs(want).max())
