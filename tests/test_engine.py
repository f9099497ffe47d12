"""The correlation engine's paths against the shift-and-sum oracle.

Tests marked with PATHS run twice: with the engine's own direct/FFT
thresholds, and with both at zero so that every call takes an FFT path
(certified FFT or limb split for integers) even at oracle-friendly sizes.
"""

import math
import random
from contextlib import contextmanager
from decimal import Decimal, localcontext

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


def _percival_bound(shape):
    """Percival's bound (Math. Comp. 72, 2003) for a length-2^n FFT product, in 60 digits.

    (1+e)^3n (1+e sqrt5)^(3n+1) (1+beta)^3n - 1 with e = 2^-53 and beta = 4e, where 2^n is the
    padded size times 4: two more levels for the real-input stages of rfftn and irfftn.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(2) ** -53
        n = (4 * math.prod(shape)).bit_length() - 1
        return float((1 + e) ** (3 * n) * (1 + e * Decimal(5).sqrt()) ** (3 * n + 1) * (1 + 4 * e) ** (3 * n) - 1)


@pytest.mark.parametrize("shape", [(1,), (8,), (4096,), (512, 512), (64, 32, 16)])
def test_fft_error_factor_is_percivals_bound(shape):
    assert lattice._fft_error_factor(shape) == pytest.approx(_percival_bound(shape), rel=1e-12, abs=0)


def _random_ints(rng, size, bits):
    return np.array([rng.randint(-(2**bits), 2**bits) for _ in range(size)],
                    dtype=lattice._int_dtype(2**bits))


@given(st.lists(st.integers(0, 10), min_size=1, max_size=3), st.integers(1, 300), st.integers(1, 300),
       st.integers(0, 80), st.integers(0, 80), st.integers(0, 2**32 - 1))
def test_certified_split_picks_the_widest_certified_limbs(log_shape, na, nb, bits_a, bits_b, seed):
    """Width 0 exactly when the whole operands pass; else the largest w with sqrt(Na Nb) 4^w < limit."""
    limit = 0.25 / lattice._fft_error_factor(tuple(1 << k for k in log_shape))
    rng = random.Random(seed)
    a, b = _random_ints(rng, na, bits_a), _random_ints(rng, nb, bits_b)
    max_a, max_b = lattice._peak(a), lattice._peak(b)
    width, xs, ys = lattice._certified_split(a, b, max_a, max_b, limit)
    whole = max(max_a, max_b) <= INT64_MAX and (
        np.linalg.norm(a.astype(np.float64)) * np.linalg.norm(b.astype(np.float64)) < limit)
    assert (width == 0) == whole
    if width:
        worst = math.sqrt(na * nb)
        assert worst * 4.0**width < limit <= worst * 4.0 ** (width + 1)
        for x, digits in [(a, xs), (b, ys)]:
            assert all(np.abs(d).max() < 2**width for d in digits)
            assert np.array_equal(sum(d.astype(np.int64).astype(object) << (width * i) for i, d in enumerate(digits)),
                                  x.astype(object))


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


# ---------------------------------------------------------------------------
# the rank-1 path: exact outer products and separable passes


def _factor_values(bits):
    """Integer factor entries: zeros, small signs and values up to 2^bits of either sign."""
    return st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(2**bits), 2**bits))


def _outer(factors):
    """The outer product of integer factors, in Python ints."""
    out = np.array(factors[0], dtype=object)
    for f in factors[1:]:
        out = np.multiply.outer(out, np.array(f, dtype=object))
    return out


@st.composite
def rank1_operands(draw, shape, bits):
    """A nonzero outer product of random integer factors, stored by the package's dtype rule."""
    factors = [draw(st.lists(_factor_values(bits), min_size=n, max_size=n).filter(any)) for n in shape]
    return Tensor.from_values(_outer(factors).reshape(shape), "int")


@st.composite
def rank1_pairs(draw):
    """(a, b) with a, b or both rank 1, in 1D to 3D, with int64 or object storage."""
    ndim = draw(st.integers(1, 3))
    extent = {1: 9, 2: 5, 3: 3}[ndim]
    shapes = [tuple(draw(st.integers(1, extent)) for _ in range(ndim)) for _ in range(2)]
    which = draw(st.sampled_from(["a", "b", "both"]))
    pair = []
    for side, shape in zip("ab", shapes):
        if which in (side, "both"):
            pair.append(draw(rank1_operands(shape, draw(st.integers(1, 40)))))
        else:
            pair.append(_operand(draw(st.integers(0, 2**32)), shape, draw(st.integers(1, 100)), draw(st.booleans())))
    return pair


@PATHS
@given(rank1_pairs())
def test_rank1_operands_match_oracle(fft_only, pair):
    with _paths(fft_only):
        _check_exact(*pair)


def _spy(monkeypatch, name):
    """Record (arguments, return value) of each call of lattice.<name>, innermost first."""
    calls = []
    original = getattr(lattice, name)

    def spy(*args):
        calls.append((args, original(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lattice, name, spy)
    return calls


_H = np.array([0, 3, -1, 0, 2])  # a zero first entry puts the pivot off the corner
_V = np.array([-2, 0, 5, 1])  # negative pivot, and a zero column


@pytest.mark.parametrize(
    "a, b",
    [
        (np.multiply.outer(_H, _V), np.arange(-30, 30).reshape(6, 10) ** 3),
        (np.arange(-30, 30).reshape(6, 10) ** 3, np.multiply.outer(_V, _H)),
        (np.multiply.outer(_H, _V), np.multiply.outer(_V, _H)),
        (np.multiply.outer(np.multiply.outer(_V, _H), _V[::-1]), np.arange(60).reshape(3, 4, 5) - 29),
    ],
    ids=["a", "b", "both", "3d"],
)
def test_rank1_operands_skip_the_fft(monkeypatch, a, b):
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    ffts = _spy(monkeypatch, "_fft_int_correlate")
    rank1 = _spy(monkeypatch, "_rank1_correlate")
    _check_exact(Tensor.from_values(a), Tensor.from_values(b))
    assert rank1[-1][1] is not None
    assert all(args[0].ndim == 1 for args, _ in ffts)  # only the factors' own 1D correlations


@pytest.mark.parametrize("side", ["a", "b"])
def test_near_rank1_falls_back_to_the_engine(monkeypatch, side):
    """One perturbed entry anywhere, including one the first tested row never reads."""
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    rank1 = np.multiply.outer(_H, _V)
    other = Tensor.from_values(np.arange(-10, 10).reshape(4, 5))
    for index in np.ndindex(rank1.shape):
        near = rank1.copy()
        near[index] += 1
        assert lattice._rank1_factors(near, 16) is None
        ffts = _spy(monkeypatch, "_fft_int_correlate")
        pair = (Tensor.from_values(near), other) if side == "a" else (other, Tensor.from_values(near))
        _check_exact(*pair)
        assert len(ffts) == 1


@pytest.mark.parametrize(
    "factors",
    [
        [[0, 3, -1, 0, 2], [-2, 0, 5, 1]],
        [[-6, 4], [0, 0, 9], [3, -3, 12]],
        [[2**62, -(2**61)], [-2, 1]],  # -2^63 at the pivot
        [[2**70, 3, 0], [5, -(2**65)]],  # entries beyond int64
    ],
)
def test_rank1_factors_rebuild_the_operand(factors):
    x = Tensor.from_values(_outer(factors))
    got = lattice._rank1_factors(x.data, x.max_abs())
    assert np.array_equal(_outer(got), x.data.astype(object))
    assert math.gcd(*got[0].tolist()) == 1  # the primitive column


def test_int64_minimum_in_rank1_and_general_operands():
    rank1 = Tensor(np.multiply.outer(np.array([2, 1]), np.array([-(2**62), -(2**61)])), "int")
    assert rank1.data.dtype == np.int64 and rank1.data.min() == -(2**63)
    general = Tensor(np.array([[-(2**63), 5, 1], [7, -3, 2]], dtype=np.int64), "int")
    small = Tensor.from_values(np.multiply.outer([1, -1], [2, 3]))
    with _paths(fft_only=True):
        for pair in [(rank1, general), (general, rank1), (small, general), (general, small), (rank1, rank1)]:
            _check_exact(*pair)


@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("extra", [0, 1])
def test_separable_limbs_at_the_int64_bound(monkeypatch, side, extra):
    """max|y| G = 2^63 - 1 passes as one int64 digit; one more splits y into limbs."""
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    limbs = _spy(monkeypatch, "_limbs")
    u, v = np.array([1, -2, 0, 4]), np.array([3, 1, -3])  # G = 7 * 7 = 49
    top = INT64_MAX // 49
    y = np.arange(12, dtype=object).reshape(3, 4) - 5
    y[1, 2] = top + extra
    pair = [Tensor.from_values(np.multiply.outer(u, v)), Tensor.from_values(y)]
    _check_exact(*(pair if side == "a" else pair[::-1]))
    assert [len(out) for _, out in limbs] == ([2] if extra else [])  # width 57: 58 bits in 2 limbs


@pytest.mark.parametrize("bits", [40, 64, 130])
def test_separable_limbs_on_big_integers(monkeypatch, bits):
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    ffts = _spy(monkeypatch, "_fft_int_correlate")
    rng = np.random.default_rng(bits)
    y = Tensor.from_values(rng.integers(-9, 10, (4, 3, 5)).astype(object) * 2**bits - 7)
    rank1 = Tensor.from_values(np.multiply.outer(np.multiply.outer([1, -2], [3, 0, 1]), [5, -1, 2, 2]))
    _check_exact(rank1, y)
    _check_exact(y, rank1)
    assert not ffts


def test_separable_without_a_limb_width_uses_the_engine(monkeypatch):
    """A kernel whose sum|f| product passes 2^62 leaves no limb width w >= 1."""
    monkeypatch.setattr(lattice, "_INT_DIRECT_MACS", 0)
    ffts = _spy(monkeypatch, "_fft_int_correlate")
    rank1 = Tensor.from_values(np.multiply.outer([2**40, 1], [2**30, -1, 3]))
    _check_exact(rank1, Tensor.from_values(np.arange(6).reshape(2, 3) - 2))
    assert len(ffts) == 1


def test_separable_zero_operand_with_a_kernel_beyond_int64():
    """max|y| = 0 bounds every pass, but the kernel's own entries still need int64 room."""
    with _paths(fft_only=True):
        for pair in [(Tensor.from_values([[0]]), Tensor.from_values([[25553265676184717262]])),
                     (Tensor.from_values([[2**70, 3]]), Tensor.from_values([[0, 0], [0, 0]]))]:
            _check_exact(*pair)
            _check_exact(*pair[::-1])


def test_paper_scale_outer_product_autocorrelation_factorizes():
    """The 255-sample Fibonacci product: object entries, int64 factors, outer-product path."""
    from huffkit.construct import fibonacci_huffman

    f = fibonacci_huffman(255, 2)
    c2 = correlate(outer_product([f, f]), outer_product([f, f])).values.data
    c1 = np.array(correlate(f, f).values.data, dtype=object)
    assert c2.dtype == object
    assert np.array_equal(c2, np.multiply.outer(c1, c1))
