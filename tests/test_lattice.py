"""Correlation engine against the shift-and-sum oracle, plus I/O round trips."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from huffkit.lattice import (
    LatticeError,
    Tensor,
    _periodic,
    as_tensor,
    convolve,
    correlate,
    flip,
    outer_product,
    read_pgm,
    read_text,
    write_pgm,
    write_text,
)

from conftest import oracle_correlate


def _random_int_tensor(rng, ndim, max_extent=5, lo=-9, hi=10):
    shape = tuple(int(rng.integers(1, max_extent + 1)) for _ in range(ndim))
    return Tensor.from_values(rng.integers(lo, hi, shape), "int")


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_correlate_matches_oracle(rng, ndim):
    for _ in range(70 // ndim):
        a = _random_int_tensor(rng, ndim)
        b = _random_int_tensor(rng, ndim)
        got = correlate(a, b).values.data
        want = oracle_correlate(a.data, b.data)
        assert got.shape == want.shape
        assert np.array_equal(got.astype(object), want)


def test_correlate_real_mode_matches_oracle(rng):
    a = Tensor(rng.normal(size=(4, 3)), "real")
    b = Tensor(rng.normal(size=(2, 5)), "real")
    got = correlate(a, b).values.data
    want = oracle_correlate(a.data, b.data).astype(np.float64)
    assert np.allclose(got, want, atol=1e-12)


def test_zero_index_is_peak_for_autocorrelation(rng):
    a = _random_int_tensor(rng, 2)
    c = correlate(a, a)
    assert c.zero_index == tuple(n - 1 for n in a.shape)
    assert c.values.data[c.zero_index] == c.peak
    # C0 is the energy
    assert c.peak == int((a.data.astype(object) ** 2).sum())


def test_autocorrelation_is_centro_symmetric(rng):
    a = _random_int_tensor(rng, 2, max_extent=4)
    v = correlate(a, a).values.data
    assert np.array_equal(v, v[::-1, ::-1])


def test_convolve_matches_numpy_1d(rng):
    a = rng.integers(-9, 10, 6)
    b = rng.integers(-9, 10, 4)
    got = convolve(Tensor.from_values(a), Tensor.from_values(b)).data
    assert np.array_equal(got, np.convolve(a, b))


def test_convolve_is_commutative(rng):
    a = _random_int_tensor(rng, 2)
    b = _random_int_tensor(rng, 2)
    assert np.array_equal(convolve(a, b).data, convolve(b, a).data)


def test_convolve_equals_correlate_of_flip(rng):
    a = _random_int_tensor(rng, 2)
    b = _random_int_tensor(rng, 2)
    assert np.array_equal(convolve(a, b).data, correlate(flip(a), b).values.data)


def test_h5_autocorrelation_vector():
    h5 = Tensor.from_values([1, 2, 2, -2, 1])
    got = correlate(h5, h5).values.data
    assert got.tolist() == [1, 0, 0, 0, 14, 0, 0, 0, 1]


def test_h9_autocorrelation_vector(h9):
    got = correlate(h9, h9).values.data
    assert got.tolist() == [1, 0, -1, 0, 0, 0, 0, 0, 64, 0, 0, 0, 0, 0, -1, 0, 1]


def test_correlation_theorem_small_grid(rng):
    """DFT of the full correlation equals conj(DFT a) * DFT b on the padded grid."""
    for _ in range(20):
        a = _random_int_tensor(rng, 2, max_extent=4)
        b = _random_int_tensor(rng, 2, max_extent=4)
        c = correlate(a, b).values.data.astype(np.float64)
        shape = c.shape
        fa = np.fft.fftn(a.data.astype(np.float64), shape, axes=(0, 1))
        fb = np.fft.fftn(b.data.astype(np.float64), shape, axes=(0, 1))
        # zero shift sits at index a.shape-1, so realign before transforming
        rolled = np.roll(c, shift=[-(n - 1) for n in a.shape], axis=(0, 1))
        assert np.allclose(np.fft.fftn(rolled), np.conj(fa) * fb, atol=1e-6)


def test_outer_product_peak_multiplies(h9):
    sq = outer_product([h9, h9])
    assert sq.shape == (9, 9)
    assert correlate(sq, sq).peak == 64 * 64


def test_big_values_use_object_dtype():
    t = Tensor.from_values([2**40, -(2**41), 3])
    c = correlate(t, t)
    assert c.peak == 2**80 + 2**82 + 9
    assert np.array_equal(c.values.data, c.values.data[::-1])


def test_object_path_matches_oracle(rng):
    """The exact big-integer engine agrees with shift-and-sum, cross included."""
    for _ in range(15):
        a = Tensor.from_values(rng.integers(-9, 10, (3, 4)).astype(object) * 2**45)
        b = Tensor.from_values(rng.integers(-9, 10, (2, 3)).astype(object) * 2**45)
        got = correlate(a, b).values.data
        assert np.array_equal(got, oracle_correlate(a.data, b.data))


@given(st.lists(st.integers(-50, 50), min_size=1, max_size=12))
def test_flip_is_involution(values):
    t = Tensor.from_values(values)
    assert np.array_equal(flip(flip(t)).data, t.data)


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=8),
    st.lists(st.integers(-20, 20), min_size=1, max_size=8),
)
def test_correlate_flip_symmetry(xs, ys):
    """C_ab(s) = C_ba(-s): swapping arguments flips the output."""
    a, b = Tensor.from_values(xs), Tensor.from_values(ys)
    ab = correlate(a, b).values.data
    ba = correlate(b, a).values.data
    assert np.array_equal(ab, ba[::-1])


@given(
    st.lists(st.tuples(st.integers(1, 4), st.integers(0, 5)), min_size=1, max_size=2),
    st.randoms(use_true_random=False),
    st.sampled_from([1, 2**70]),  # int64 and object-dtype correlations
)
def test_periodic_fold_is_the_periodic_autocorrelation(axes, rnd, scale):
    """The fold onto m = n + pad per axis equals sum_r a(r) a((r + s) mod m) of the zero-padded array."""
    shape, grid = tuple(n for n, _ in axes), tuple(n + pad for n, pad in axes)
    padded = np.zeros(grid, dtype=object)
    padded[tuple(slice(0, n) for n in shape)] = np.array(
        [rnd.randint(-9, 9) * scale for _ in range(int(np.prod(shape)))], dtype=object
    ).reshape(shape)
    a = Tensor.from_values(padded[tuple(slice(0, n) for n in shape)])
    got = _periodic(correlate(a, a).values.data, grid)
    for s in np.ndindex(*grid):
        want = sum(padded[r] * padded[tuple((ri + si) % m for ri, si, m in zip(r, s, grid))] for r in np.ndindex(*grid))
        assert got[s] == want


# -- file I/O ---------------------------------------------------------------


def test_text_roundtrip_int_2d(tmp_path, rng):
    t = _random_int_tensor(rng, 2)
    p = tmp_path / "t.txt"
    write_text(t, p)
    back = read_text(p)
    assert back.mode == "int"
    assert np.array_equal(back.data, t.data)


def test_text_roundtrip_real_preserves_repr(tmp_path):
    t = Tensor(np.array([0.1, -3.5e-7, 2.0]), "real")
    p = tmp_path / "t.txt"
    write_text(t, p)
    back = read_text(p)
    assert back.mode == "real"
    assert np.array_equal(back.data, t.data)  # exact: repr round trip


def test_text_roundtrip_huge_ints(tmp_path):
    t = Tensor.from_values([2**70, -(2**71)])
    p = tmp_path / "big.txt"
    write_text(t, p)
    back = read_text(p)
    assert back.data.dtype == object
    assert list(back.data) == [2**70, -(2**71)]


def test_pgm_roundtrip_exact_8bit(tmp_path, rng):
    img = Tensor.from_values(rng.integers(0, 256, (12, 7)), "int")
    p = tmp_path / "img.pgm"
    write_pgm(img, p)
    back = read_pgm(p)
    assert np.array_equal(back.data, img.data)


def test_pgm_roundtrip_exact_16bit(tmp_path, rng):
    values = rng.integers(0, 65536, (5, 9))
    values[0, 0], values[-1, -1] = 0, 65535
    img = Tensor.from_values(values, "int")
    p = tmp_path / "img.pgm"
    write_pgm(img, p, maxval=65535)
    raw = p.read_bytes()
    header = b"P5\n9 5\n65535\n"
    assert raw.startswith(header)
    assert raw[len(header):] == values.astype(">u2").tobytes()
    assert np.array_equal(read_pgm(p).data, values)


@pytest.mark.parametrize("maxval", [1, 254, 256, 65534, 65536])
def test_pgm_refuses_other_maxvals(tmp_path, maxval):
    p = tmp_path / "img.pgm"
    with pytest.raises(LatticeError, match="maxval"):
        write_pgm(Tensor.from_values([[0, 1], [2, 3]], "int"), p, maxval=maxval)
    assert not p.exists()


@pytest.mark.parametrize(
    "content",
    [b"P5\n-2 1\n255\n\x05\x07", b"P5\n2 0\n255\n", b"P5\n2 1\n0\n\x00\x00",
     b"P5\n2 1\n70000\n\x00\x05\x00\x07", b"P5\n2 1\n3\n\x05\x07"],
    ids=["negative-width", "zero-height", "maxval-0", "maxval-70000", "sample-above-maxval"],
)
def test_pgm_refuses_impossible_headers(tmp_path, content):
    p = tmp_path / "bad.pgm"
    p.write_bytes(content)
    with pytest.raises(LatticeError, match="impossible PGM header|above maxval"):
        read_pgm(p)


def test_pgm_scales_out_of_range_values(tmp_path):
    img = Tensor.from_values([[-5, 0], [5, 10]], "int")
    p = tmp_path / "img.pgm"
    write_pgm(img, p)
    back = read_pgm(p).data
    assert back.min() == 0 and back.max() == 255


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_rejects_non_finite_values(tmp_path, bad):
    p = tmp_path / "img.pgm"
    with pytest.raises(LatticeError, match="finite"):
        write_pgm(Tensor(np.array([[0.0, bad], [1.0, 2.0]]), "real"), p)
    assert not p.exists()


@pytest.mark.parametrize("bad", ["nan", "inf", "1e400"])
def test_text_rejects_non_finite_values(tmp_path, bad):
    p = tmp_path / "seq.txt"
    p.write_text(f"3\n1.0 {bad} 2.0\n")
    with pytest.raises(LatticeError, match="finite"):
        read_text(p)
    with pytest.raises(LatticeError, match="finite"):
        write_text(Tensor(np.array([1.0, float(bad), 2.0]), "real"), tmp_path / "out.txt")
    assert not (tmp_path / "out.txt").exists()


def test_empty_tensor_rejected():
    with pytest.raises(LatticeError):
        Tensor(np.zeros((0, 3)), "int")


def test_dimensionality_mismatch_rejected(h9, h9x9):
    with pytest.raises(LatticeError):
        correlate(h9, h9x9)


@pytest.mark.parametrize("data", [np.array([1.5, 2.0]), np.array([1.0, 2.0]), np.array([True, False])])
def test_int_tensor_refuses_non_integer_storage(data):
    with pytest.raises(LatticeError, match="int tensor stored as"):
        Tensor(data, "int")


def test_tensors_compare_by_value_and_are_unhashable():
    a = Tensor.from_values([[1, -2], [3, 4]])
    b = Tensor(np.array([[1, -2], [3, 4]], dtype=object), "int")
    assert a == b and a is not b
    assert a != Tensor.from_values([[1, -2], [3, 5]]) and a != Tensor.from_values([1, -2, 3, 4])
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_as_tensor_passthrough(h9):
    assert as_tensor(h9) is h9
    assert as_tensor([1, 2]).mode == "int"
    assert as_tensor([1.5]).mode == "real"
