"""Discrete projections and twins."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from huffkit.construct import catalog, fibonacci_huffman
from huffkit.lattice import Tensor, correlate, outer_product
from huffkit.metrics import classify, cross_metrics
from huffkit.project import (
    ProjectionDirection,
    ProjectionError,
    as_direction,
    project,
    project3,
    twin,
)

# Coprime 2D directions with components up to 3, used by the property tests.
COPRIME_2D = [
    (p, q)
    for p in range(-3, 4)
    for q in range(-3, 4)
    if (p, q) != (0, 0) and np.gcd(p, q) == 1
]


def _square(seed: Tensor) -> Tensor:
    return outer_product([seed, seed])


# ---------------------------------------------------------------------------
# direction parsing


def test_as_direction_parses_colon_notation():
    d = as_direction("1:-1")
    assert isinstance(d, ProjectionDirection)
    assert (d.p, d.q, d.r) == (1, -1, None)
    assert str(d) == "1:-1"
    assert d.components == (1, -1)


def test_as_direction_accepts_tuples_and_passthrough():
    d = as_direction((2, 3))
    assert d.components == (2, 3)
    assert as_direction(d) is d


def test_as_direction_three_components():
    d = as_direction("1:1:1", ndim=3)
    assert (d.p, d.q, d.r) == (1, 1, 1)
    assert d.components == (1, 1, 1)


@pytest.mark.parametrize("text", ["2:4", "0:0", "3:-6"])
def test_as_direction_rejects_degenerate_directions(text):
    with pytest.raises(ProjectionError):
        as_direction(text, ndim=2)


def test_as_direction_checks_arity():
    with pytest.raises(ProjectionError):
        as_direction("1:1:1", ndim=2)
    with pytest.raises(ProjectionError):
        as_direction("1:2", ndim=3)


def test_project_requires_matching_rank():
    h7 = fibonacci_huffman(7, 2)
    with pytest.raises(ProjectionError):
        project(h7, "1:-1")
    with pytest.raises(ProjectionError):
        project3(_square(h7), "1:1:1")


# ---------------------------------------------------------------------------
# 2D projections


def test_axis_projection_recovers_scaled_seed():
    # Summing an outer product along one axis leaves the seed scaled by the
    # other factor's total mass (here sum(H7) == 4); the (1:0) view runs the
    # bins in the opposite order.
    h7 = fibonacci_huffman(7, 2)
    sq = _square(h7)
    assert np.array_equal(project(sq, "0:1").data, 4 * h7.data)
    assert np.array_equal(project(sq, "1:0").data, (4 * h7.data)[::-1])


def test_diagonal_projection_is_seed_autocorrelation():
    h7 = fibonacci_huffman(7, 2)
    p = project(_square(h7), "1:1")
    assert p.data.tolist() == [-1, 0, 0, 0, 0, 0, 18, 0, 0, 0, 0, 0, -1]
    assert np.array_equal(p.data, correlate(h7, h7).values.data)


def test_antidiagonal_of_h27_square_has_length_53():
    h27 = fibonacci_huffman(27, 2)
    p = project(_square(h27), "1:-1")
    assert p.shape == (53,)
    rep = classify(p)
    c0 = int(np.sum(h27.data.astype(object) ** 2))
    assert c0 == 271443
    assert rep.R == pytest.approx((c0**2 + 2) / (2 * c0), rel=1e-12)
    assert rep.R == pytest.approx(135721.50000368402)


@pytest.mark.parametrize("length", [7, 11, 15])
@pytest.mark.parametrize("direction", ["1:1", "1:-1"])
def test_diagonal_metric_formulas_are_exact(length, direction):
    # Exact rational arithmetic: for canonical seeds both diagonals satisfy
    # R = (C0^2 + 2) / (2 C0) and M = (C0^2 + 2)^2 / (2 (2 C0)^2 + 2).
    h = fibonacci_huffman(length, 2)
    c0 = int(np.sum(h.data.astype(object) ** 2))
    p = project(_square(h), direction)
    c = correlate(p, p)
    off = c.values.data.astype(object).copy()
    off[c.zero_index] = 0
    peak = int(c.peak)
    measured_r = Fraction(peak, max(abs(int(v)) for v in off.flat))
    measured_m = Fraction(peak**2, sum(int(v) ** 2 for v in off.flat))
    assert measured_r == Fraction(c0**2 + 2, 2 * c0)
    assert measured_m == Fraction((c0**2 + 2) ** 2, 2 * (2 * c0) ** 2 + 2)


def test_off_diagonal_projections_keep_seed_side_lobe_ratio():
    # Oblique views trade merit factor but hold R at exactly C0.
    for length, c0 in ((7, 18), (11, 123)):
        h = fibonacci_huffman(length, 2)
        assert int(np.sum(h.data**2)) == c0
        for d in ("1:2", "2:1", "1:-2", "1:3", "2:3"):
            assert classify(project(_square(h), d)).R == c0


def test_projection_length_formula():
    rng = np.random.default_rng(7)
    for rows, cols in ((5, 5), (4, 7), (6, 3)):
        a = Tensor(rng.integers(-9, 10, size=(rows, cols)), "int")
        for p, q in COPRIME_2D:
            out = project(a, (p, q))
            assert out.shape == (abs(p) * (rows - 1) + abs(q) * (cols - 1) + 1,)


def test_projection_preserves_total_mass():
    rng = np.random.default_rng(11)
    a = Tensor(rng.integers(-20, 21, size=(6, 5)), "int")
    for p, q in COPRIME_2D:
        assert int(project(a, (p, q)).data.sum()) == int(a.data.sum())


@given(
    data=st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=4),
        min_size=3,
        max_size=4,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
    index=st.integers(0, len(COPRIME_2D) - 1),
)
def test_projection_commutes_with_autocorrelation(data, index):
    # Projecting the autocorrelation plane matches autocorrelating the
    # projection: the central-slice property on the integer lattice.
    a = Tensor(np.array(data, dtype=np.int64), "int")
    d = COPRIME_2D[index]
    lhs = project(correlate(a, a).values, d)
    rhs = correlate(project(a, d), project(a, d)).values
    assert np.array_equal(lhs.data, rhs.data)


def test_swapped_direction_reverses_projection():
    for key in ("H4", "H8", "H9"):
        sq = _square(catalog(key))
        for pq, qp in (("1:2", "2:1"), ("1:-2", "-2:1"), ("2:-3", "-3:2")):
            x = project(sq, pq).data
            y = project(sq, qp).data
            assert np.array_equal(x, y[::-1])


def test_distinct_directions_decorrelate():
    # Perpendicular view pairs of the same square stay nearly orthogonal.
    for key in ("H4", "H8", "H9"):
        sq = _square(catalog(key))
        r, m = cross_metrics(correlate(project(sq, "1:2"), project(sq, "-2:1")))
        assert r < 2.0
        assert m < 1.0


# ---------------------------------------------------------------------------
# twins


def test_twin_of_h9():
    t = twin(catalog("H9"))
    assert t.data.tolist() == [1, -3, 4, -2, -2, 2, 4, 3, 1]


def test_twin_flips_odd_positions():
    h = fibonacci_huffman(15, 2)
    signs = (-1) ** np.arange(15)
    assert np.array_equal(twin(h).data, h.data * signs)


def test_twin_is_an_involution():
    for seed in (catalog("H9"), fibonacci_huffman(7, 2), fibonacci_huffman(15, 4)):
        assert np.array_equal(twin(twin(seed)).data, seed.data)


def test_twin_of_square_alternates_along_first_axis_only():
    sq = _square(catalog("H9"))
    t = twin(sq)
    signs = ((-1) ** np.arange(9))[:, None]
    assert np.array_equal(t.data, sq.data * signs)
    assert np.array_equal(twin(t).data, sq.data)


def test_twin_flips_the_int64_minimum_into_python_ints():
    t = twin([1, -(2**63)])
    assert t.data.tolist() == [1, 2**63] and t.mode == "int"


_INT64_EDGES = st.one_of(st.integers(-(2**63), 2**63 - 1), st.sampled_from([-(2**63), -(2**63) + 1, 2**63 - 1]))


@given(st.integers(1, 6), st.integers(1, 3), st.data())
def test_twin_matches_a_python_int_oracle(rows, cols, data):
    values = data.draw(st.lists(st.lists(_INT64_EDGES, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
    expected = [[(-1) ** i * v for v in row] for i, row in enumerate(values)]
    assert twin(values).data.tolist() == expected
    assert twin([row[0] for row in values]).data.tolist() == [row[0] for row in expected]


def test_twin_cross_correlation_stays_low():
    h9 = catalog("H9")
    r, m = cross_metrics(correlate(h9, twin(h9)))
    assert r == pytest.approx(28 / 24)
    assert m == pytest.approx(784 / 3316)
    assert r < 2.0 and m < 1.0


# ---------------------------------------------------------------------------
# 3D projections


def test_project3_axis_view_scales_the_square():
    h7 = fibonacci_huffman(7, 2)
    cube = outer_product([h7, h7, h7])
    p = project3(cube, "0:0:1")
    assert np.array_equal(p.data, 4 * _square(h7).data)


def test_project3_body_diagonal_of_ones_cube():
    ones = Tensor(np.ones((3, 3, 3), dtype=np.int64), "int")
    p = project3(ones, "1:1:1")
    assert p.shape == (5, 5)
    assert int(p.data.sum()) == 27


def test_project3_mixed_direction_factors():
    h7 = fibonacci_huffman(7, 2)
    cube = outer_product([h7, h7, h7])
    p = project3(cube, "1:1:0")
    assert p.shape == (13, 7)
    auto = correlate(h7, h7).values.data
    assert np.array_equal(p.data, np.outer(auto, h7.data[::-1]))


def test_project3_rejects_non_coprime_directions():
    h7 = fibonacci_huffman(7, 2)
    cube = outer_product([h7, h7, h7])
    with pytest.raises(ProjectionError):
        project3(cube, "2:2:4")
