"""The exact-integer rule outside the correlation engine, at the int64 edges.

Every integer sum, product and sign flip takes int64 or Python ints from one
worst-case bound (``lattice._int_dtype``).  Each site below is checked against
plain Python-int arithmetic with values drawn around +-2^62, +-2^63 and 2^64,
where an int64 result would wrap.
"""

import math

import numpy as np
from hypothesis import example, given, strategies as st

from huffkit.construct import diamond_array
from huffkit.imaging import ghost_image, pedestal_pair, watermark_embed
from huffkit.lattice import Tensor, as_tensor, outer_product
from huffkit.project import project

from conftest import oracle_correlate

_EDGES = [2**31, 2**61, 2**62, 2**63 - 1, 2**63, 2**64]
EDGE_INTS = st.one_of(
    st.integers(-9, 9),
    st.sampled_from(_EDGES + [-v for v in _EDGES]),
    st.integers(-(2**65), 2**65),
)


def _vectors(min_size=1, max_size=4):
    return st.lists(EDGE_INTS, min_size=min_size, max_size=max_size)


def _grids(rows, cols):
    return st.lists(st.lists(EDGE_INTS, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def _float_ceiling(n: int) -> int:
    """Least integer >= n that is also a float: an integral pedestal kappa."""
    k = int(float(n))
    return k if k >= n else int(math.nextafter(float(n), math.inf))


def _tolist(x) -> list:
    return np.asarray(x, dtype=object).tolist()


@given(st.lists(_vectors(), min_size=1, max_size=3))
@example([[2**40], [2**40]])
def test_outer_product_is_exact(factors):
    got = outer_product(factors)
    expected = np.array(factors[0], dtype=object)
    for f in factors[1:]:
        expected = np.multiply.outer(expected, np.array(f, dtype=object))
    assert got.mode == "int"
    assert got.data.tolist() == expected.tolist()


@given(_vectors(), _vectors(), st.sampled_from([0, 1, 2**62, 0.5]))
@example([1], [2**62], 0)
@example([3, -7], [2, -5, 4], 0.5)  # a non-integral kappa: the pedestal terms still cancel exactly
def test_pedestal_pair_is_exactly_twice_the_correlation(obj, mask, extra):
    kappa = _float_ceiling(max(abs(v) for v in mask) + int(extra)) + extra % 1
    got = pedestal_pair(obj, mask, kappa)
    signed = _tolist(oracle_correlate(np.array(mask, dtype=object), np.array(obj, dtype=object)))
    assert got.mode == "int"
    assert got.data.tolist() == [2 * v for v in signed]


@given(_vectors(), _vectors(), st.sampled_from([0, 1, 2**61]))
@example([3], [2**61], 2**61)
def test_ghost_bucket_is_exact(obj, mask, extra):
    if not any(mask):
        mask = [1]
    kappa = _float_ceiling(max(0, -min(mask)) + extra)
    bucket = ghost_image(obj, mask, kappa, kappa_prime=0.0).bucket
    signed = _tolist(oracle_correlate(np.array(mask, dtype=object), np.array(obj, dtype=object)))
    assert bucket.mode == "int"
    assert bucket.data.tolist() == [v + kappa * sum(obj) for v in signed]


@st.composite
def _embeddings(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    host = draw(_grids(rows, cols))
    mark = draw(_grids(draw(st.integers(1, rows)), draw(st.integers(1, cols))))
    offset = (draw(st.integers(0, rows - len(mark))), draw(st.integers(0, cols - len(mark[0]))))
    return host, mark, offset


@given(_embeddings())
@example(([[2**62]], [[2**62]], (0, 0)))
def test_watermark_embed_adds_exactly(case):
    host, mark, offset = case
    expected = [row[:] for row in host]
    for i, row in enumerate(mark):
        for j, v in enumerate(row):
            expected[offset[0] + i][offset[1] + j] += v
    got = watermark_embed(host, mark, offset)
    assert got.mode == "int"
    assert got.data.tolist() == expected


@given(st.one_of(_vectors(max_size=6), _grids(2, 3)))
@example([2**63])
@example([2**63, 1])
@example([[2**63], [-1]])
def test_python_int_lists_stay_exact(values):
    for t in (Tensor.from_values(values), as_tensor(values), as_tensor(values, "int")):
        assert t.mode == "int"
        assert t.data.tolist() == values


def _project_oracle(rows, p, q):
    bins = {}
    for y, row in enumerate(rows):
        for x, v in enumerate(row):
            bins[q * x - p * y] = bins.get(q * x - p * y, 0) + v
    return [bins.get(t, 0) for t in range(min(bins), max(bins) + 1)]


@given(
    st.integers(1, 4).flatmap(lambda cols: st.lists(_grids(1, cols).map(lambda g: g[0]), min_size=1, max_size=4)),
    st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)]),
)
@example([[2**62], [2**62]], (0, 1))
def test_project_bin_sums_are_exact(grid, direction):
    got = project(grid, direction)
    assert got.mode == "int"
    assert got.data.tolist() == _project_oracle(grid, *direction)


@given(st.lists(_grids(2, 2), min_size=1, max_size=3))
@example([[[2**63]], [[2**63]]])
def test_project3_bin_sums_are_exact(cube):
    got = project(cube, "0:0:1")  # bins (y, x): the sum over the planes
    expected = [[sum(plane[y][x] for plane in cube) for x in range(len(cube[0][0]))] for y in range(len(cube[0]))]
    assert got.mode == "int"
    assert got.data.tolist() == expected


def _diamond5_oracle(a, b, c, d, e, f):
    return [
        [a, b, c, -b, a],
        [b, d, e, -d, b],
        [c, e, f, -e, c],
        [-b, -d, -e, d, -b],
        [a, b, c, -b, a],
    ]


def _diamond7_oracle(a, b, c, d, e, f, g, h):
    cf = 2 * (c + f)
    return [
        [a, b, c, d, -c, b, -a],
        [b, 2 * c, e, f, -e, 2 * c, -b],
        [c, e, cf, g, -cf, e, -c],
        [d, f, g, h, -g, f, -d],
        [-c, -e, -cf, -g, cf, -e, c],
        [b, 2 * c, e, f, -e, 2 * c, -b],
        [-a, -b, -c, -d, c, -b, a],
    ]


@given(st.sampled_from([(5, _diamond5_oracle), (7, _diamond7_oracle)]).flatmap(
    lambda t: st.tuples(st.just(t), _vectors(t[0] + 1, t[0] + 1))
))
@example(((5, _diamond5_oracle), [0, 1, 3, 6, 16, 99999999999999999999]))
@example(((7, _diamond7_oracle), [0, 0, 2**62, 0, 0, 2**62, 0, 0]))
def test_diamond_arrays_are_exact(case):
    (template, oracle), letters = case
    got = diamond_array(template, letters)
    assert got.mode == "int"
    assert got.data.tolist() == oracle(*letters)
