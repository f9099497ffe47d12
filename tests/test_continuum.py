"""Airy evaluation, odd-phase probe synthesis, and integer tweaking."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st

from huffkit import continuum
from huffkit.construct import fibonacci_huffman
from huffkit.continuum import (
    _top,
    _tweak_scan,
    _Walk,
    ContinuumError,
    ProbeSpec,
    airy,
    discretize_and_tweak,
    synthesize_probe,
    verify_delta_correlation,
)
from huffkit.lattice import Tensor
from huffkit.metrics import classify, side_lobe_ratio

from conftest import oracle_autocorrelate


# ---------------------------------------------------------------------------
# airy


def test_airy_matches_scipy_reference():
    x = np.arange(-15, 8.0001, 0.05)
    ours = airy(x).data
    ref = scipy.special.airy(x)[0]
    assert np.max(np.abs(ours - ref)) < 1e-10


def test_airy_at_zero():
    assert airy([0.0]).data[0] == pytest.approx(0.3550280538878172, abs=1e-13)


def test_airy_decays_monotonically_on_positive_axis():
    vals = airy(np.arange(1.0, 9.0, 0.25)).data
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 0)


def test_airy_truncated_autocorrelation_is_nearly_delta():
    # The continuous autocorrelation is a delta; with truncation the
    # aperiodic off-peak stays small but does not vanish.
    rep = verify_delta_correlation(airy(np.arange(-40, 8.0001, 0.5)))
    assert 0.0 < rep.aperiodic_rel < 0.05
    assert rep.peak == pytest.approx(3.852868444798446)


# ---------------------------------------------------------------------------
# ProbeSpec


def test_probe_spec_json_roundtrip():
    spec = ProbeSpec(coefficients={3: 1 / 3}, samples=257)
    assert ProbeSpec.from_json(spec.to_json()) == spec
    spec2 = ProbeSpec(
        coefficients={(3, 0): 0.4, (2, 1): -0.2, (0, 3): 0.7},
        samples=(17, 33),
        bandwidth=2.0,
    )
    assert ProbeSpec.from_json(spec2.to_json()) == spec2
    assert '"2,1"' in spec2.to_json()


@pytest.mark.parametrize("missing", ["coefficients", "samples"])
def test_probe_spec_json_names_a_missing_key(missing):
    raw = json.loads(ProbeSpec(coefficients={3: 1 / 3}, samples=9).to_json())
    del raw[missing]
    with pytest.raises(ContinuumError, match=f"probe spec has no '{missing}'"):
        ProbeSpec.from_json(json.dumps(raw))
    with pytest.raises(ContinuumError, match="probe spec has no 'coefficients' and no 'samples'"):
        ProbeSpec.from_json("[3, 9]")  # not a JSON object


def test_probe_spec_json_names_unknown_keys():
    raw = dict(json.loads(ProbeSpec(coefficients={3: 1 / 3}, samples=9).to_json()), stpe=0.5, zeta=1)
    with pytest.raises(ContinuumError, match="probe spec has unknown keys 'stpe', 'zeta'"):
        ProbeSpec.from_json(json.dumps(raw))


def test_probe_spec_rejects_even_parity():
    # Realness needs phi(-k) = -phi(k), i.e. odd *total* degree: (1,1) and
    # (3,1) are symmetric under joint negation and must be refused, while a
    # mixed monomial like (2,1) is fine.
    with pytest.raises(ContinuumError, match="parity"):
        ProbeSpec(coefficients={2: 1.0}, samples=9)
    for bad in ((1, 1), (3, 1)):
        with pytest.raises(ContinuumError, match="parity"):
            ProbeSpec(coefficients={bad: 1.0}, samples=(9, 9))
    ProbeSpec(coefficients={(2, 1): 1.0}, samples=(9, 9))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("coefficients, bandwidth", [({3: 1 / 3}, 1e300), ({3: 1e308}, 1.0), ({(1, 2): 1.0}, 1e200)])
def test_a_phase_past_float64_is_refused_without_a_warning(coefficients, bandwidth):
    samples = 9 if isinstance(next(iter(coefficients)), int) else (9, 9)
    with pytest.raises(ContinuumError, match="phase overflows float64"):
        synthesize_probe(ProbeSpec(coefficients=coefficients, samples=samples, bandwidth=bandwidth))


def test_probe_spec_validates_grid():
    with pytest.raises(ContinuumError):
        ProbeSpec(coefficients={3: 1.0}, samples=(9, 9, 9))
    with pytest.raises(ContinuumError):
        ProbeSpec(coefficients={3: 1.0}, samples=2)
    with pytest.raises(ContinuumError, match="bandwidth must be positive"):
        ProbeSpec(coefficients={3: 1.0}, samples=9, bandwidth=0.0)
    with pytest.raises(ContinuumError):
        ProbeSpec(coefficients={(3,): 1.0}, samples=(9, 9))


# ---------------------------------------------------------------------------
# synthesis


def test_zero_phase_synthesizes_an_impulse():
    p = synthesize_probe(ProbeSpec(coefficients={}, samples=9))
    expect = np.zeros(9)
    expect[0] = 1.0
    assert np.allclose(p.data, expect, atol=1e-12)


def test_cubic_phase_probe_matches_airy_up_to_grid_scaling():
    # For phi = k^3/3 the inverse transform is the Airy function; on the
    # sampled grid the probe equals Ai(x)/bandwidth on a wrapped axis with
    # spacing 1/bandwidth.
    n, bw = 4097, 3.0
    p = synthesize_probe(ProbeSpec(coefficients={3: 1 / 3}, samples=n, bandwidth=bw))
    idx = np.arange(n)
    x = ((idx + n // 2) % n - n // 2) / bw
    sel = (x >= -12) & (x <= 6)
    assert np.max(np.abs(bw * p.data[sel] - airy(x[sel]).data)) < 5e-3


def test_separable_phase_gives_separable_probe():
    joint = synthesize_probe(
        ProbeSpec(coefficients={(3, 0): 0.4, (0, 3): 0.7}, samples=(33, 33))
    )
    u = synthesize_probe(ProbeSpec(coefficients={3: 0.4}, samples=33))
    v = synthesize_probe(ProbeSpec(coefficients={3: 0.7}, samples=33))
    assert np.allclose(joint.data, np.outer(u.data, v.data), atol=1e-12)


def test_synthesized_probes_are_spectrally_flat():
    for spec in (
        ProbeSpec(coefficients={3: 1 / 3}, samples=257, bandwidth=2.0),
        ProbeSpec(coefficients={5: 0.01, 3: 0.2, 1: -1.0}, samples=128),
        ProbeSpec(coefficients={(3, 0): 0.4, (2, 1): 0.3, (0, 3): 0.7}, samples=(21, 21)),
    ):
        p = synthesize_probe(spec)
        mags = np.abs(np.fft.fftn(p.data))
        assert np.max(np.abs(mags - 1.0)) < 1e-9
        rep = verify_delta_correlation(p)
        assert rep.periodic_rel < 1e-10
        assert rep.aperiodic_rel > 0.0


def test_delta_verification_folds_an_integer_correlation_exactly(h15):
    # a canonical array's periodic off-peak is its two end products, folded onto shifts +/-1
    rep = verify_delta_correlation(h15)
    assert rep.peak == 843
    assert rep.periodic_rel == abs(int(h15.data[0]) * int(h15.data[-1])) / 843


def test_random_tensor_fails_delta_verification():
    rng = np.random.default_rng(3)
    rep = verify_delta_correlation(Tensor(rng.normal(size=64), "real"))
    assert rep.periodic_rel > 0.01
    assert rep.aperiodic_rel > 0.01


# ---------------------------------------------------------------------------
# discretize and tweak


def test_tweaked_airy_clears_quality_floors():
    grid = airy(np.arange(-40, 8.0001, 0.5))
    result = discretize_and_tweak(grid, target_bits=7)
    assert result.iterations == 253
    assert result.report.M == pytest.approx(27262.48, rel=1e-3)
    assert result.report.R == pytest.approx(751.4655, rel=1e-3)
    assert result.report.M >= 300
    assert result.report.R >= 50


def test_tweaking_never_worsens_the_objective():
    grid = airy(np.arange(-24, 8.0001, 0.8))
    rounded = np.rint(grid.data * (2**5 - 1) / np.abs(grid.data).max()).astype(np.int64)
    before = side_lobe_ratio(Tensor(rounded, "int"))
    result = discretize_and_tweak(grid, target_bits=5, objective="R")
    assert result.report.R >= before


def test_canonical_integer_input_is_left_alone():
    h7 = fibonacci_huffman(7, 2)
    result = discretize_and_tweak(h7, target_bits=3, objective="R")
    assert np.array_equal(result.tensor.data, h7.data)
    assert result.iterations == 0
    assert result.report.classification == "canonical"


def test_all_zero_input_is_refused():
    with pytest.raises(ContinuumError, match="zero-energy input"):
        discretize_and_tweak(Tensor(np.zeros(9), "real"), target_bits=4)


def test_integer_input_past_int64_is_refused_before_the_cast():
    with pytest.raises(ArithmeticError, match="past int64"):
        discretize_and_tweak(Tensor.from_values([2**70, 1], "int"), target_bits=4)


def test_tweak_validates_arguments():
    grid = airy(np.arange(-8, 4.0, 1.0))
    with pytest.raises(ContinuumError):
        discretize_and_tweak(grid, target_bits=2)
    with pytest.raises(ContinuumError):
        discretize_and_tweak(grid, target_bits=4, objective="S")
    with pytest.raises(ContinuumError):
        discretize_and_tweak(grid, target_bits=4, max_iters=-1)


def test_max_iters_caps_the_greedy_walk():
    grid = airy(np.arange(-40, 8.0001, 0.5))
    capped = discretize_and_tweak(grid, target_bits=7, max_iters=3)
    assert capped.iterations == 3
    full = discretize_and_tweak(grid, target_bits=7, max_iters=0)
    assert full.iterations == 0
    assert classify(full.tensor).M <= capped.report.M


def test_tweak_keeps_the_bit_depth_bound():
    probe = synthesize_probe(
        ProbeSpec(coefficients={(3, 0): 1 / 3, (0, 3): 1 / 3}, samples=(31, 31))
    )
    result = discretize_and_tweak(probe, target_bits=5, max_iters=100)
    assert result.iterations == 100
    assert np.abs(result.tensor.data).max() <= 31


# ---------------------------------------------------------------------------
# the vectorised scan against the per-move loop it replaced


def _oracle_objective(values, zero, name):
    """(primary, secondary) exact score of one correlation; larger is better."""
    c0 = int(values[zero])
    flat = values.reshape(-1).astype(object)
    off2 = int((flat * flat).sum()) - c0 * c0
    mags = np.abs(values)
    mags[zero] = 0
    maxoff = int(mags.max())
    m = math.inf if off2 == 0 else Fraction(c0 * c0, off2)
    r = math.inf if maxoff == 0 else Fraction(c0, maxoff)
    return (m, r) if name == "M" else (r, m)


def _oracle_scan(start, corr, zero, name, limit):
    """Build every +/-1 candidate's correlation and keep the first strict best."""
    best_key = _oracle_objective(corr, zero, name)
    best = None
    shape = start.shape
    for flat in range(start.size):
        idx = np.unravel_index(flat, shape)
        plus = np.zeros_like(corr)
        window = tuple(slice(n - 1 - i, 2 * n - 1 - i) for i, n in zip(idx, shape))
        plus[window] = start
        gather = plus + plus[tuple(slice(None, None, -1) for _ in shape)]
        value = int(start[idx])
        for t in (1, -1):
            if abs(value + t) > limit and abs(value + t) >= abs(value):
                continue
            cand = corr + t * gather
            cand[zero] += 1
            key = _oracle_objective(cand, zero, name)
            if key > best_key:
                best_key, best = key, (flat, t, cand)
    return best


@st.composite
def tweak_inputs(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, (9, 4, 3)[ndim - 1])) for _ in range(ndim))
    hi = draw(st.sampled_from([1, 2, 5, 2**20]))
    values = draw(st.lists(st.integers(-hi, hi), min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(values, dtype=np.int64).reshape(shape)
    mirror = a[(slice(None, None, -1),) * ndim]
    # palindromic, anti-palindromic and transposed-symmetric inputs are dense in ties
    form = draw(st.sampled_from(["plain", "palindrome", "anti", "transpose"]))
    if form == "palindrome":
        a = a + mirror
    elif form == "anti":
        a = a - mirror
    elif form == "transpose" and ndim == 2 and shape[0] == shape[1]:
        a = a + a.T
    name = draw(st.sampled_from(["M", "R"]))
    # small chunks split the R objective's off-peak maxima over several blocks
    return a, name, draw(st.sampled_from([3, 7, 2**62])), draw(st.sampled_from([1 << 17, 40, 1]))


@given(tweak_inputs())
@example((np.array([2**20, 3, -(2**20) + 1, 5]), "M", 2**62, 1 << 17))  # E' leaves int64
@example((np.array([[2**20, 7], [-3, 2**20]]), "R", 7, 1 << 17))  # past the bound, object path
@example((np.array([-2, -1, 0, 1, 2]), "R", 2**62, 1 << 17))  # +1 and -1 tie: +1 wins
@example((np.array([-1, 1, 1, -1, -1, 1]), "M", 2**62, 1 << 17))  # M ties, R decides
@example((np.array([1, -1, -1, 3, 2, -1]), "R", 2**62, 20))  # R ties, M decides
@example((np.array([[-2, -1], [1, 2]]), "R", 2**62, 1))
@example((np.array([0, -1, -2, 1]), "M", 3, 1 << 17))  # the winner lands on the bound
@example((np.array([[[2, -1], [0, 1]], [[1, 1], [-1, 2]]]), "M", 2**62, 1 << 17))
def test_tweak_scan_matches_the_per_move_oracle(case):
    start, name, limit, chunk = case
    corr = np.array(oracle_autocorrelate(start), dtype=np.int64)
    zero = tuple(n - 1 for n in start.shape)
    walk = _Walk(start)  # the state the walk starts from: C, D and S from the engine
    assert np.array_equal(walk.corr, corr)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(continuum, "_CHUNK", chunk)
        got = _tweak_scan(walk, name, limit)
    want = _oracle_scan(start, corr, zero, name, limit)
    if want is None:
        assert got is None
    else:
        assert got[:2] == want[:2]
        assert got[2].dtype == np.int64
        assert np.array_equal(got[2], want[2])


def test_tweak_withholds_a_move_its_rebuild_disagrees_with(monkeypatch):
    real = continuum.convolve

    def off_by_one(a, b):  # every S(i) one too large: each E' is off by 2
        out = real(a, b)
        return Tensor(out.data + 1, out.mode)

    monkeypatch.setattr(continuum, "convolve", off_by_one)
    with pytest.raises(ArithmeticError, match="rebuilt"):
        discretize_and_tweak(airy(np.arange(-8, 4.0, 1.0)), target_bits=4)


# ---------------------------------------------------------------------------
# the carried walk against the walk that rebuilds its state before every move


def _reference_path(h, bits, objective, max_iters):
    """Every array the walk steps through when the engine rebuilds C, D and S before each move."""
    a = discretize_and_tweak(h, bits, objective, max_iters=0).tensor.data.astype(np.int64)
    path = []
    for _ in range(max_iters):
        move = _tweak_scan(_Walk(a), objective, 2**bits - 1)
        if move is None:
            break
        a = a.copy()
        a.reshape(-1)[move.flat] += move.t
        path.append(a)
    return path


def _assert_walk_matches_the_reference(h, bits, objective, max_iters):
    """Run the carried walk, compare it move for move with the reference, and return D's dtype after each move."""
    path, dtypes = [], []
    real = _Walk.advance

    def recording(self, move):
        real(self, move)
        path.append(self.a.copy())
        dtypes.append(self.d.dtype)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Walk, "advance", recording)
        result = discretize_and_tweak(h, bits, objective, max_iters)
    want = _reference_path(h, bits, objective, max_iters)
    assert result.iterations == len(path) == len(want)
    for got, expected in zip(path, want):
        assert np.array_equal(got, expected)
    if want:
        assert np.array_equal(result.tensor.data, want[-1])
    return dtypes


@st.composite
def walk_inputs(draw):
    ndim = draw(st.integers(1, 3))
    shape = tuple(draw(st.integers(1, (12, 5, 3)[ndim - 1])) for _ in range(ndim))
    hi = draw(st.sampled_from([1, 3, 40, 2**20]))
    values = draw(st.lists(st.integers(-hi, hi), min_size=math.prod(shape), max_size=math.prod(shape)))
    a = np.array(values, dtype=np.int64).reshape(shape)
    if not a.any():
        a.reshape(-1)[0] = hi
    objective = draw(st.sampled_from(["M", "R"]))
    if draw(st.booleans()):  # a real input is scaled to the bit depth first
        return Tensor(a.astype(np.float64), "real"), draw(st.sampled_from([3, 5, 7])), objective
    return Tensor(a, "int"), draw(st.sampled_from([3, 5, 62])), objective


@settings(max_examples=60, deadline=None)
@given(walk_inputs(), st.integers(0, 12))
@example((airy(np.arange(-40, 8.0001, 0.5)), 7, "M"), 300)  # the CLI's default walk, all 253 moves
def test_carried_walk_matches_the_rebuilt_walk_move_for_move(case, max_iters):
    h, bits, objective = case
    _assert_walk_matches_the_reference(h, bits, objective, max_iters)


# sum|a| * c0 is just past or short of 2^63, so D changes dtype on the first move while C stays in int64
@pytest.mark.parametrize("values, bits, objective, dtypes", [
    ([1131732, -916652, -967887], 3, "M", (object, np.int64)),
    ([[747613, -614794, -625554], [-612547, 597437, -604426]], 3, "R", (object, np.int64)),
    ([[[-731867, 497972], [-508167, -489634]], [[-499270, 483196], [-477139, 473883]]], 3, "M", (object, np.int64)),
    ([-958678, 803745, -795825, 761519], 62, "M", (np.int64, object)),
    ([[808879, 621447, -572432], [-590456, 572239, -624172]], 62, "R", (np.int64, object)),
    ([[[703029, -474072], [-508538, 486721]], [[-497414, -518601], [484621, -496413]]], 62, "R", (np.int64, object)),
])
def test_carried_d_changes_dtype_with_its_bound(values, bits, objective, dtypes):
    a = np.array(values, dtype=np.int64)
    walk = _Walk(a)
    assert walk.d.dtype == dtypes[0] and walk.corr.dtype == np.int64
    assert _assert_walk_matches_the_reference(Tensor(a, "int"), bits, objective, 6)[0] == dtypes[1]


@pytest.mark.parametrize("field, edits, message", [
    ("d", {0: 1}, "sum check"),  # a corner of D: no score reads it
    ("s", {1: -1}, "sum check"),  # an odd shift of S: no score reads it
    ("d", {0: 1, -1: -1}, "disagree with the engine"),  # the sums still agree
    ("s", {1: 1, -2: -1}, "rebuilt correlation"),  # moves carry it into D, which the next score reads
])
@pytest.mark.parametrize("max_iters", [0, 5])
def test_a_corrupted_carried_entry_withholds_the_result(field, edits, message, max_iters):
    real = _Walk.__init__

    def corrupted(self, start):
        real(self, start)
        for index, delta in edits.items():
            getattr(self, field).reshape(-1)[index] += delta

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Walk, "__init__", corrupted)
        with pytest.raises(ArithmeticError, match="disagree with the engine" if max_iters == 0 else message):
            discretize_and_tweak(airy(np.arange(-8, 4.0, 1.0)), target_bits=4, max_iters=max_iters)


def test_shortlist_ranks_exactly_past_float_resolution():
    # equal as float64, different as integers
    best, tied = _top(np.array([2**60, 2**60 + 1, 2**60 + 1]), np.ones(3, dtype=np.int64), np.arange(3))
    assert (best, tied) == (2**60 + 1, [1, 2])
    # equal as integers, one unit apart as float64: the margin keeps both
    r = 458977753292669195339
    best, tied = _top(np.array([705 * r, r], dtype=object), np.array([705, 1], dtype=object), np.arange(2))
    assert (best, tied) == (r, [0, 1])
    # past float64 altogether: every move is ranked exactly
    num = np.array([2**1100, 2**1100 + 1, 5], dtype=object)
    best, tied = _top(num, np.array([1, 1, 0], dtype=object), np.arange(2))
    assert (best, tied) == (2**1100 + 1, [1])
    best, tied = _top(num, np.array([1, 1, 0], dtype=object), np.arange(3))
    assert (best, tied) == (math.inf, [2])
