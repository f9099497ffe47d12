"""Imaging properties against the shift-and-sum oracle, and the batched
random baseline against the per-trial loop it replaced."""

import math
from contextlib import contextmanager
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from huffkit import imaging, lattice
from huffkit.construct import catalog, tensor_huffman
from huffkit.imaging import (
    BaselineStats,
    decode,
    deblur,
    encode,
    ghost_image,
    multiplex_noise_study,
    pedestal_pair,
    random_baseline,
    trial_rng,
    watermark_embed,
    watermark_locate,
)
from huffkit.lattice import Tensor, correlate
from huffkit.metrics import merit_factor, side_lobe_ratio

from conftest import oracle_autocorrelate, oracle_correlate

_OBJ = np.arange(42).reshape(6, 7) * 5 % 11 - 4
_MASK = np.array([[1, 2, -1, 0], [2, -3, 1, 1], [0, 1, 2, -2]])
_RANDOM_MASK = np.array([[2, 1, 0], [-2, -1, -3], [-3, -3, -2]])  # far from delta-correlated


# ---------------------------------------------------------------------------
# encode / decode / pedestal / ghost / deblur / noise study


def test_encoding_an_impulse_gives_the_flipped_mask():
    obj = np.zeros((5, 6), dtype=np.int64)
    obj[2, 3] = 1
    blurred = encode(obj, _MASK).data
    expected = np.zeros(blurred.shape, dtype=np.int64)
    expected[2 : 2 + _MASK.shape[0], 3 : 3 + _MASK.shape[1]] = _MASK[::-1, ::-1]
    assert np.array_equal(blurred, expected)
    assert np.array_equal(blurred, oracle_correlate(_MASK, obj).astype(np.int64))


@pytest.mark.parametrize("shape", [(9,), (6, 7), (4, 3, 5)])
def test_decode_of_encode_is_the_object_filtered_by_the_mask_autocorrelation(shape):
    rng = np.random.default_rng(len(shape))
    obj = rng.integers(-9, 10, size=shape)
    mask = rng.integers(-3, 4, size=tuple(max(1, n // 2) for n in shape))
    filtered = oracle_correlate(oracle_autocorrelate(mask), obj)
    crop = tuple(slice(m - 1, m - 1 + n) for m, n in zip(mask.shape, shape))
    got = decode(encode(obj, mask), mask)
    assert got.mode == "int" and got.shape == shape
    assert np.array_equal(got.data, filtered[crop].astype(np.int64))


def test_pedestal_pair_is_exactly_twice_the_encoding():
    for kappa in (3, 7):
        got = pedestal_pair(_OBJ, _MASK, kappa)
        assert got.mode == "int"
        assert np.array_equal(got.data, 2 * encode(_OBJ, _MASK).data)


def test_pedestal_pair_is_exact_for_a_non_integral_kappa():
    """The pedestal terms cancel exactly, so a half-integral kappa still gives 2 * encode in integers."""
    kappa = float(np.abs(_MASK).max()) + 0.5
    got = pedestal_pair(_OBJ, _MASK, kappa)
    assert got.mode == "int"
    assert np.array_equal(got.data, 2 * oracle_correlate(_MASK, _OBJ).astype(np.int64))
    with pytest.raises(imaging.ImagingError, match="needs >= 3.0"):
        pedestal_pair(_OBJ, _MASK, 2.5)


def test_pedestal_pair_takes_the_separable_path_of_encode(monkeypatch):
    """H + kappa is not rank 1; 2 * encode keeps an outer-product mask on the rank-1 path."""
    obj = np.arange(64 * 64).reshape(64, 64) * 7 % 256
    mask = tensor_huffman([catalog("H9"), catalog("H9")])
    want = 2 * encode(obj, mask).data

    def refuse(*args):
        raise AssertionError("the limb-split FFT ran")

    monkeypatch.setattr(lattice, "_fft_int_correlate", refuse)
    assert np.array_equal(pedestal_pair(obj, mask, int(mask.max_abs())).data, want)


def test_ghost_with_exact_kappa_prime_is_the_normalised_decode():
    ghost = ghost_image(_OBJ, _MASK, kappa=3, kappa_prime="exact")
    c0 = float(oracle_autocorrelate(_MASK)[tuple(n - 1 for n in _MASK.shape)])
    normalised = decode(encode(_OBJ, _MASK), _MASK).data / c0
    assert ghost.kappa_prime_mode == "exact" and not ghost.partial
    assert np.array_equal(ghost.reconstruction.data, normalised)


@pytest.mark.parametrize("kappa", [math.nan, math.inf])
def test_non_finite_kappa_is_an_imaging_error(kappa):
    with pytest.raises(imaging.ImagingError, match="ghost kappa must be finite"):
        ghost_image(_OBJ, _MASK, kappa)
    with pytest.raises(imaging.ImagingError, match="pedestal kappa must be finite"):
        pedestal_pair(_OBJ, _MASK, kappa)


def test_ghost_scan_sets_partial():
    full = tuple(slice(0, n + m - 1) for n, m in zip(_OBJ.shape, _MASK.shape))
    assert not ghost_image(_OBJ, _MASK, kappa=3, scan=full).partial
    assert ghost_image(_OBJ, _MASK, kappa=3, scan=(slice(0, 4), slice(None))).partial


def test_ghost_and_locate_take_c0_without_the_mask_auto_correlation(monkeypatch):
    calls = []
    monkeypatch.setattr(imaging, "correlate", lambda a, b: calls.append(1) or correlate(a, b))
    c0 = int(oracle_autocorrelate(_MASK)[tuple(n - 1 for n in _MASK.shape)])
    ghost = ghost_image(_OBJ, _MASK, kappa=3, kappa_prime=0.0)
    assert len(calls) == 1  # the bucket scan only
    raw = decode(ghost.bucket, _MASK).data
    assert np.array_equal(ghost.reconstruction.data, raw / float(c0))
    match = watermark_locate(watermark_embed(np.zeros((9, 9), dtype=np.int64), _MASK, (2, 3)), _MASK)
    assert len(calls) == 2  # plus the search
    assert match.offset == (2, 3) and match.threshold == c0 / 2


def test_deblur_converges_for_an_h9_outer_product():
    obj = np.arange(144).reshape(12, 12) * 7 % 13
    mask = tensor_huffman([catalog("H9"), catalog("H9")])
    result = deblur(encode(obj, mask), mask, iterations=6)
    assert not result.diverged and result.iterations == 6
    assert all(b < a for a, b in zip(result.step_sizes, result.step_sizes[1:]))
    assert np.max(np.abs(result.estimate.data - obj)) < 1e-3


def test_deblur_converges_for_an_h15_outer_product(h15):
    obj = np.arange(400).reshape(20, 20) * 7 % 13
    mask = tensor_huffman([h15, h15])
    result = deblur(encode(obj, mask), mask, iterations=4)
    assert not result.diverged and result.iterations == 4
    assert all(b < a for a, b in zip(result.step_sizes, result.step_sizes[1:]))
    assert np.max(np.abs(result.estimate.data - obj)) < 1e-6


def test_watermark_offset_is_python_ints():
    match = watermark_locate(watermark_embed(np.zeros((12, 12), dtype=np.int64), _MASK, (5, 7)), _MASK)
    assert match.offset == (5, 7)
    assert all(type(v) is int for v in match.offset)


def test_deblur_diverges_for_a_random_mask():
    result = deblur(encode(_OBJ, _RANDOM_MASK), _RANDOM_MASK, iterations=8)
    assert result.diverged
    assert result.iterations < 8


def test_deblur_with_one_iteration_is_the_normalised_decode():
    blurred = encode(_OBJ, _MASK)
    c0 = float(oracle_autocorrelate(_MASK)[tuple(n - 1 for n in _MASK.shape)])
    estimate = deblur(blurred, _MASK, iterations=1).estimate
    assert estimate.mode == "real"
    assert estimate.data.tobytes() == (decode(blurred, _MASK).data / c0).tobytes()


@pytest.mark.parametrize(
    "run",
    [lambda zero: deblur(encode(_OBJ, zero), zero), lambda zero: ghost_image(_OBJ, zero, 0),
     lambda zero: multiplex_noise_study(_OBJ, zero, 1.0, trials=2)],
    ids=["deblur", "ghost", "noise-study"],
)
def test_zero_energy_mask_is_refused(run):
    with pytest.raises(imaging.ImagingError, match="zero-energy mask: C0 = 0"):
        run(np.zeros((2, 3), dtype=np.int64))


def _parent_noise_study(obj, mask, sigma, trials, seed):
    """The noise study as first written: decode clean and noisy images, subtract the two."""
    o, h = np.asarray(obj, dtype=np.float64), np.asarray(mask, dtype=np.float64)
    hn = Tensor(h / math.sqrt(float((h * h).mean())), "real")
    c0 = float((hn.data * hn.data).sum())
    clean_i = encode(Tensor(o, "real"), hn)
    clean_est = decode(clean_i, hn).data / c0
    mse_a, mse_b = [], []
    for t in range(trials):
        rng = trial_rng(seed, t)
        mse_a.append(float((rng.normal(0.0, sigma, size=o.shape) ** 2).mean()))
        noisy = Tensor(clean_i.data + rng.normal(0.0, sigma, size=clean_i.shape), "real")
        mse_b.append(float(((decode(noisy, hn).data / c0 - clean_est) ** 2).mean()))
    return mse_a, mse_b


@pytest.mark.parametrize("shape", [(6, 7), (40,)])
def test_noise_study_by_linearity_matches_the_two_decode_formula(shape):
    rng = np.random.default_rng(9)
    obj = rng.integers(0, 256, size=shape)
    mask = _MASK if len(shape) == 2 else rng.integers(-3, 4, size=9)
    study = multiplex_noise_study(obj, mask, sigma=0.7, trials=5, seed=11)
    mse_a, mse_b = _parent_noise_study(obj, mask, 0.7, 5, 11)
    total = 0.0
    for v in mse_a:  # the same left-to-right float sum
        total += v
    assert study.mse_raster == total / 5
    assert study.mse_diffuse == pytest.approx(sum(mse_b) / 5, rel=1e-12)
    assert study.ratios == pytest.approx([a / b for a, b in zip(mse_a, mse_b)], rel=1e-12)


def test_noise_study_ratio_is_about_the_element_count():
    study = multiplex_noise_study(_OBJ, _MASK, sigma=1.0, trials=200, seed=3)
    assert study.element_count == _MASK.size
    assert abs(study.ratio_mean - _MASK.size) < 0.1 * _MASK.size


# ---------------------------------------------------------------------------
# random baseline: batched exact scoring against the per-trial loop


def baseline_loop(shape, values, trials, seed):
    """The per-trial baseline: one engine correlation and two metric calls per trial."""
    shape = tuple(int(n) for n in shape)
    count = math.prod(shape)
    pool = np.asarray(list(values), dtype=np.int64)
    if count == 1:
        return BaselineStats(trials, seed, shape, (math.nan,) * 3, (math.nan,) * 3, (), (), True)
    rs, ms = np.empty(trials), np.empty(trials)
    for i in range(trials):
        arr = trial_rng(seed, i).choice(pool, size=count, replace=False).reshape(shape)
        c = correlate(Tensor(arr, "int"), Tensor(arr, "int"))
        rs[i] = side_lobe_ratio(c)
        ms[i] = merit_factor(c)
    return BaselineStats(
        trials,
        seed,
        shape,
        (float(rs.min()), float(rs.mean()), float(rs.max())),
        (float(ms.min()), float(ms.mean()), float(ms.max())),
        tuple(float(v) for v in rs),
        tuple(float(v) for v in ms),
    )


def _fields(stats: BaselineStats) -> str:
    """Every field, means included; repr tells every float apart and matches nan to nan."""
    return repr(astuple(stats))


SCORING = pytest.mark.parametrize("scoring", ["shipped", "small-blocks", "engine"])


@contextmanager
def _scoring(mode):
    """The shipped constants, blocks of one to a few trials, or every trial
    sent through the per-trial engine path."""
    with pytest.MonkeyPatch.context() as mp:
        if mode == "small-blocks":
            mp.setattr(lattice, "_LAG_BLOCK", 40)
        elif mode == "engine":
            mp.setattr(lattice, "_INT_DIRECT_MACS", 0)
        yield


_SHAPES = st.sampled_from([(2,), (3,), (7,), (2, 2), (3, 3), (2, 5), (2, 2, 2), (3, 1, 2)])
# 2^3: small int64; 2^14: sum C^2 past 2^53; 2^31: C past int64 (object rows)
_SCALES = st.sampled_from([2**3, 2**14, 2**31, 2**62])


@st.composite
def _baseline_cases(draw):
    shape = draw(_SHAPES)
    count = math.prod(shape)
    scale = draw(_SCALES)
    pool = draw(st.lists(st.integers(-scale, scale), min_size=count, max_size=count + 6, unique=True))
    if draw(st.booleans()) and 0 not in pool:
        pool[draw(st.integers(0, len(pool) - 1))] = 0
    return shape, pool, draw(st.integers(1, 12)), draw(st.integers(0, 2**32))


@SCORING
@given(_baseline_cases())
@example(((2,), [0, 5], 3, 0))  # C(1) = 0 in every trial: R = M = inf
@example(((1,), [4, 9], 2, 1))  # one cell: undefined
@example(((3, 3), list(range(4000, 4009)), 1, 7))  # one trial; sum C^2 past 2^53
@example(((2, 2), [2**40 + v for v in range(5)], 4, 2))  # C past int64
@example(((2,), [-(2**63), 1, 2], 5, 0))  # -2^63 counts at full magnitude
def test_batched_baseline_matches_the_per_trial_loop(scoring, case):
    shape, pool, trials, seed = case
    with _scoring(scoring):
        batched = random_baseline(shape, pool, trials, seed)
    assert _fields(batched) == _fields(baseline_loop(shape, pool, trials, seed))


@SCORING
@pytest.mark.parametrize("shape", [(5, 5), (16,), (3, 2, 2)])
def test_batched_baseline_matches_across_blocks(scoring, shape):
    values = range(-12, 14)
    with _scoring(scoring):
        batched = random_baseline(shape, values, 130, 11)
    assert _fields(batched) == _fields(baseline_loop(shape, values, 130, 11))


def test_any_subset_of_trials_reproduces():
    full = random_baseline((3, 3), range(-5, 5), 60, 4)
    head = random_baseline((3, 3), range(-5, 5), 25, 4)
    assert full.R_values[:25] == head.R_values and full.M_values[:25] == head.M_values


def test_auto_lags_hold_every_entry_of_the_correlation():
    rng = np.random.default_rng(5)
    for shape in [(6,), (3, 4), (2, 3, 2)]:
        arrays = [rng.integers(-20, 20, size=math.prod(shape)) for _ in range(7)]
        rows = np.concatenate(list(lattice._auto_lags(arrays, shape)))
        for arr, row in zip(arrays, rows):
            full = oracle_autocorrelate(arr.reshape(shape)).reshape(-1)
            zero = len(full) // 2
            assert list(row) == list(full[zero:]) == list(full[zero::-1])


def test_auto_lags_sum_check_withholds_a_wrong_block(monkeypatch):
    original = lattice._flat

    def off_by_one(x, out_shape):
        out = original(x, out_shape).copy()
        out[..., 0] += 1
        return out

    monkeypatch.setattr(lattice, "_flat", off_by_one)
    with pytest.raises(ArithmeticError, match="sum check"):
        random_baseline((3, 3), range(-5, 5), 4, 0)
