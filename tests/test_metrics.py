"""Quality metrics: frozen ground truths, invariances, and the classifier."""

import json

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from huffkit.construct import build_diamond, catalog
from huffkit.imaging import ghost_image, valid_region
from huffkit.lattice import Tensor, convolve, correlate, flip
from huffkit.metrics import (
    bits,
    classify,
    cross_metrics,
    efficiency,
    merit_factor,
    power,
    side_lobe_ratio,
    span_bits,
    spectral_flatness,
)

from conftest import oracle_edge_values, oracle_ring

# Two published 7x7 example alphabets, used all over this suite.
ALPHA_A = (0, 0, 1, 2, 6, 7, 17, 20)
ALPHA_B = (0, 0, 0, 1, 3, 6, 20, 36)


def test_h9_merit_and_side_lobe_exact(h9):
    rep = classify(h9)
    assert rep.M == 1024.0
    assert rep.R == 64.0
    assert rep.C0 == 64
    assert rep.classification == "quasi"


def test_printed_5x5_example_metrics():
    rep = classify(build_diamond(5, (0, 1, 2, 4, 7, 13)))
    assert rep.R == 75.5
    assert rep.M == pytest.approx(518.2045454545455)


def test_alphabet_a_report():
    rep = classify(build_diamond(7, ALPHA_A))
    assert rep.R == pytest.approx(221.7, abs=0.05)
    assert rep.M == pytest.approx(2007, rel=5e-4)
    assert rep.OP == 14
    assert rep.E == pytest.approx(37 / 49)
    assert rep.P == pytest.approx(0.398, abs=5e-4)
    assert rep.classification == "other"


def test_alphabet_b_report():
    rep = classify(build_diamond(7, ALPHA_B))
    assert rep.R == pytest.approx(184.6, abs=0.05)
    assert rep.M == pytest.approx(2267, rel=5e-4)
    assert rep.OP == 15
    assert rep.C_edge == 20
    assert rep.P == pytest.approx(0.2411, abs=5e-5)
    assert rep.E == pytest.approx(0.510, abs=5e-4)
    assert rep.classification == "quasi"


def test_h15_is_canonical(h15):
    assert classify(h15).classification == "canonical"


def test_h9x9_outer_square(h9x9):
    rep = classify(h9x9)
    assert rep.C0 == 4096
    assert rep.R == 64.0
    assert rep.C_edge == 64
    assert rep.classification == "quasi"


def test_flatness_times_c0_band(h15):
    # canonical arrays keep S * (C0 - 1) in a narrow band just under 2
    s = spectral_flatness(h15)
    assert 1.8 <= s * (843 - 1) < 2.0


def test_flatness_oversampling_h8():
    h8 = catalog("H8")
    assert spectral_flatness(h8, oversample=16) == pytest.approx(0.167, abs=0.005)


def test_bits_conventions(h9, h15):
    assert bits(h9) == 3       # max |value| = 4
    assert bits(h15) == 5      # max |value| = 16
    assert span_bits(h15) == 6  # -16 .. 16 spans 33 levels
    assert bits(Tensor.from_values([0, 1])) == 1


def test_json_field_names(h9):
    d = json.loads(classify(h9).to_json())
    assert sorted(d) == ["C0", "Cedge", "E", "M", "OP", "P", "R", "S", "bits", "class"]


@pytest.mark.parametrize("transform", ["flip", "negate", "both"])
def test_metric_invariance(h9, transform):
    t = h9
    if transform in ("flip", "both"):
        t = flip(t)
    if transform in ("negate", "both"):
        t = Tensor(-t.data, t.mode)
    a, b = classify(h9), classify(t)
    assert (a.M, a.R, a.E, a.P, a.C0, a.OP) == (b.M, b.R, b.E, b.P, b.C0, b.OP)
    assert a.classification == b.classification


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=10).filter(lambda v: any(v)))
def test_merit_and_ratio_scale_invariant(values):
    """Scaling every element by a constant leaves M and R unchanged."""
    t = Tensor.from_values(values)
    s = Tensor.from_values([3 * v for v in values])
    ct, cs = correlate(t, t), correlate(s, s)
    if ct.off_peak_max > 0:
        assert side_lobe_ratio(cs) == pytest.approx(side_lobe_ratio(ct))
        assert merit_factor(cs) == pytest.approx(merit_factor(ct))


def test_efficiency_and_power_definitions():
    t = Tensor.from_values([[0, 2], [1, 0]])
    assert efficiency(t) == pytest.approx(0.5)
    # rms over every cell, relative to the largest magnitude
    assert power(t) == pytest.approx(np.sqrt(5 / 4) / 2)


def test_cross_metrics_frozen_pair(h9):
    from huffkit.project import twin

    r, m = cross_metrics(correlate(h9, twin(h9)))
    assert r == pytest.approx(28 / 24)
    assert m == pytest.approx(784 / 3316)


def test_delta_function_classifies_canonical():
    # single impulse: no off-peak at all
    rep = classify(Tensor.from_values([[5]]))
    assert rep.classification == "canonical"
    assert rep.R == np.inf and rep.M == np.inf  # no off-peak at all


# Extents 1, 2, even and odd; entries mostly small or zero so that canonical and
# quasi arrays turn up, and up to 2^40 so the correlations leave int64.
_ENTRIES = st.one_of(st.just(0), st.integers(-2, 2), st.integers(-(2**40), 2**40))


@st.composite
def _same_ndim_pair(draw):
    ndim = draw(st.integers(1, 3))

    def array():
        shape = tuple(draw(st.lists(st.sampled_from([1, 2, 3, 4, 5]), min_size=ndim, max_size=ndim)))
        count = int(np.prod(shape))
        return np.array(draw(st.lists(_ENTRIES, min_size=count, max_size=count))).reshape(shape)

    return array(), array()


@given(_same_ndim_pair())
@example((np.array([1, 2, 2, 4, 6, 10, 16, -3, -16, 10, -6, 4, -2, 2, -1]), np.arange(3)))
@example((catalog("H9").data, np.arange(4)))
@example((np.array([1, 3, 4, -3, 1]), np.arange(2)))  # quasi: only the tips C(+/-2) break canonical
@example((np.array([[1, 2, 1]]), np.ones((2, 2), dtype=np.int64)))  # no tips along an extent-1 axis
@example((catalog("H8x8").data, np.ones((2, 3), dtype=np.int64)))
@example((build_diamond(7, ALPHA_B).data, np.arange(9).reshape(3, 3)))
def test_edge_sets_match_the_oracle(pair):
    """OP, C_edge, the class and the boundary kappa' read the documented index sets."""
    a, obj = pair
    assume(a.any())  # an all-zero mask has no C0 to normalise by
    c = correlate(a, a)
    rep = classify(a)
    op, c_edge, kind = oracle_edge_values(c.values.data, a.shape)
    assert (rep.OP, rep.C_edge, rep.classification) == (op, c_edge, kind)

    kappa = max(0, -int(a.min()))
    ghost = ghost_image(obj, a, kappa, kappa_prime="boundary")
    raw = convolve(ghost.bucket, a).data[valid_region(ghost.bucket.shape, a.shape)]
    raw = np.asarray(raw, dtype=np.float64)
    assert ghost.kappa_prime == float(np.mean([raw[i] for i in oracle_ring(raw.shape)]))
