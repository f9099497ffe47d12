"""Constructions: recurrence families, catalog entries, diamond solvers, specs."""

import csv
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from huffkit.construct import (
    _search,
    ConstructError,
    HuffmanSpec,
    build,
    build_diamond,
    catalog,
    diamond5_solve,
    diamond7_closed_form,
    diamond7_solve,
    diamond_array,
    fibonacci_huffman,
    h5_family,
    phi_value,
    tensor_huffman,
)
from huffkit.lattice import correlate
from huffkit.metrics import classify, span_bits

from conftest import DATA, oracle_autocorrelate, oracle_edge_sets

H15_SEQUENCE = [1, 2, 2, 4, 6, 10, 16, -3, -16, 10, -6, 4, -2, 2, -1]


def test_h15_exact_sequence(h15):
    assert h15.data.tolist() == H15_SEQUENCE


def test_h15_autocorrelation_is_delta(h15):
    want = [0] * 29
    want[0] = want[28] = -1
    want[14] = 843
    got = oracle_autocorrelate(h15.data)
    assert got.tolist() == want
    assert 843 == sum(v * v for v in H15_SEQUENCE)


def test_h7_both_bases():
    assert fibonacci_huffman(7, 2).data.tolist() == [1, 2, 2, 0, -2, 2, -1]
    assert fibonacci_huffman(7, 4).data.tolist() == [1, 4, 8, 6, -8, 4, -1]


@pytest.mark.parametrize("N", [7, 11, 15, 19, 23, 27])
@pytest.mark.parametrize("b", [2, 4, 6])
def test_family_grid_is_canonical(N, b):
    t = fibonacci_huffman(N, b)
    c = correlate(t, t)
    rep = classify(t)
    assert rep.classification == "canonical"
    assert c.peak == int((t.data.astype(object) ** 2).sum())
    ends = (c.values.data[0], c.values.data[-1])
    assert {abs(int(v)) for v in ends} == {1}


def test_length_validation():
    with pytest.raises(ConstructError):
        fibonacci_huffman(9)  # not 4n+3
    with pytest.raises(ConstructError):
        fibonacci_huffman(15, b=3)  # odd base


def test_phi_values_match_known_sequences():
    assert [phi_value(k, 2) for k in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert [phi_value(k, 4) for k in range(7)] == [0, 1, 2, 5, 12, 29, 70]
    assert phi_value(-3, 2) == 2 and phi_value(-4, 2) == -3


@given(st.integers(0, 40), st.integers(1, 40), st.sampled_from([2, 4, 6, 8]))
def test_phi_bilinear_identity(m, n, b):
    """phi(m+n) = phi(m) phi(n+1) + phi(m-1) phi(n) — index reduction."""
    lhs = phi_value(m + n, b)
    rhs = phi_value(m, b) * phi_value(n + 1, b) + phi_value(m - 1, b) * phi_value(n, b)
    assert lhs == rhs


def test_h5_families():
    assert h5_family(1).data.tolist() == [1, 2, 2, -2, 1]
    assert oracle_autocorrelate(h5_family(1).data).tolist() == [1, 0, 0, 0, 14, 0, 0, 0, 1]
    odd = h5_family(1, variant="odd")
    assert odd.data.tolist() == [1, 3, 4, -3, 1]
    c = oracle_autocorrelate(odd.data).tolist()
    assert c[0] == c[-1] == 1 and c[2] == c[-3] == -1
    with pytest.raises(ConstructError):
        h5_family(0)


def test_h5_even_peak_formula():
    for n in (1, 2, 5):
        c = correlate(h5_family(n), h5_family(n))
        assert c.peak == 4 * n**4 + 8 * n**2 + 2


def test_catalog():
    assert catalog("H9").data.tolist() == [1, 3, 4, 2, -2, -2, 4, -3, 1]
    assert catalog("H8").shape == (8,)
    assert catalog("H8x8").shape == (8, 8)
    with pytest.raises(ConstructError, match=r"known: \['H4', 'H8', 'H8x8', 'H9'\]"):
        catalog("H99")


def test_h8x8_report():
    rep = classify(catalog("H8x8"))
    assert rep.C0 == 2468
    assert rep.R == pytest.approx(72.588, abs=5e-3)
    assert rep.M == pytest.approx(264.7, abs=0.05)
    assert rep.C_edge == 34


# -- Diophantine solvers ------------------------------------------------------


def test_diamond5_families_exact():
    """The complete (d, e) family list over the standard base, endpoints pinned."""
    t0 = time.monotonic()
    sols = diamond5_solve()
    assert time.monotonic() - t0 < 10.0
    by_d = {}
    for s in sols:
        assert s.values[:4] == (0, 1, 4, 8)
        by_d.setdefault(s.values[4], set()).add(s.values[5])
    assert by_d[24] == {74, 75}
    assert by_d[28] == {98, 99, 100}
    assert min(by_d) == 24 and max(by_d) == 28
    assert set(by_d) == {24, 25, 26, 27, 28}


def test_diamond7_e1_unique():
    t0 = time.monotonic()
    sols = diamond7_solve(1)
    assert time.monotonic() - t0 < 10.0
    assert [s.values for s in sols] == [(0, 0, 0, 1, 1, 1, 2, 3)]


def test_diamond7_e3_matches_table_triples():
    """The printed rows' (f, g, h) and their OP and span-convention bits columns."""
    sols = diamond7_solve(3)
    got = sorted((*s.values[5:8], span_bits(diamond_array(7, s.values)), s.report.OP) for s in sols
                 if 3 <= s.values[5] <= 20)
    with open(DATA / "table_7x7_e3.csv") as fh:
        want = sorted(tuple(int(r[k]) for k in ("f", "g", "h", "bits", "OP")) for r in csv.DictReader(fh))
    assert got == want


def test_closed_form_lands_in_solution_set():
    sols = {(s.values[5], s.values[6], s.values[7]) for s in diamond7_solve(3)}
    for f in (2, 4, 6, 8, 10):
        g, h = diamond7_closed_form(f)
        assert (f, g, h) in sols
    assert diamond7_closed_form(6) == (19, 33)
    with pytest.raises(ConstructError):
        diamond7_closed_form(5)


def test_solutions_build_and_classify():
    for s in diamond7_solve(1):
        rep = classify(s.build())
        assert rep.classification in ("canonical", "quasi")
        assert rep.OP <= s.c_edge


def test_build_diamond_published_examples():
    a = build_diamond(7, (0, 0, 1, 2, 6, 7, 17, 20))
    b = build_diamond(7, (0, 0, 0, 1, 3, 6, 20, 36))
    assert a.shape == b.shape == (7, 7)
    assert classify(a).R == pytest.approx(221.7, abs=0.05)
    assert classify(b).R == pytest.approx(184.6, abs=0.05)


def test_build_diamond_rejects_violating_alphabet():
    with pytest.raises(ConstructError):
        build_diamond(5, (0, 1, 4, 8, 1, 14))


def test_diamond_is_symmetric():
    arr = build_diamond(5, (0, 1, 4, 8, 28, 99)).data
    assert np.array_equal(arr, arr.T)


# -- the polynomial-object search the solvers replaced, kept as their oracle --


class Quadratic:
    """Exact quadratic polynomial in n integer letters, one Python int per term."""

    def __init__(self, const, lin, sq, cross):
        self.const, self.lin, self.sq, self.cross = const, lin, sq, cross  # cross: {(i, j): c}, i < j

    @staticmethod
    def probe(fn, nvars):
        """Fit one quadratic per output entry of vector-valued fn(letters)."""

        def at(assign):
            v = [assign.get(i, 0) for i in range(nvars)]
            return np.asarray(fn(v), dtype=object).ravel()

        base = at({})
        plus = [at({i: 1}) for i in range(nvars)]
        minus = [at({i: -1}) for i in range(nvars)]
        polys = []
        for pos in range(base.size):
            a0 = int(base[pos])
            lin = [(int(plus[i][pos]) - int(minus[i][pos])) // 2 for i in range(nvars)]
            sq = [(int(plus[i][pos]) + int(minus[i][pos]) - 2 * a0) // 2 for i in range(nvars)]
            polys.append(Quadratic(a0, lin, sq, {}))
        for i, j in itertools.combinations(range(nvars), 2):
            pair = at({i: 1, j: 1})
            for pos, poly in enumerate(polys):
                c = int(pair[pos]) - (poly.const + poly.lin[i] + poly.lin[j] + poly.sq[i] + poly.sq[j])
                if c:
                    poly.cross[(i, j)] = c
        return polys

    def eval(self, v):
        tot = self.const + sum(self.lin[i] * x + self.sq[i] * x * x for i, x in enumerate(v))
        return tot + sum(c * v[i] * v[j] for (i, j), c in self.cross.items())

    def substitute(self, known):
        """Fix some letters, returning a quadratic in the remaining ones."""
        const, lin, sq, cross = self.const, list(self.lin), list(self.sq), {}
        for i, x in known.items():
            const += lin[i] * x + sq[i] * x * x
            lin[i] = sq[i] = 0
        for (i, j), c in self.cross.items():
            if i in known and j in known:
                const += c * known[i] * known[j]
            elif i in known:
                lin[j] += c * known[i]
            elif j in known:
                lin[i] += c * known[j]
            else:
                cross[(i, j)] = c
        return Quadratic(const, lin, sq, cross)

    def is_constant(self):
        return not (any(self.lin) or any(self.sq) or self.cross)

    def linear_in(self, var):
        """(offset, slope) if the poly is a + b*x_var only; else None."""
        others = any(self.lin[i] or self.sq[i] for i in range(len(self.lin)) if i != var)
        if self.sq[var] or self.cross or others:
            return None
        return self.const, self.lin[var]


def window(polys, var, bound, lo, hi):
    """Integer range of x_var keeping every |a + b*x| <= bound; None = empty."""
    for poly in polys:
        ab = poly.linear_in(var)
        if ab is None:
            continue
        a, b = ab
        if b == 0:
            if abs(a) > bound:
                return None
            continue
        if b < 0:
            a, b = -a, -b
        lo = max(lo, -((bound + a) // b))
        hi = min(hi, (bound - a) // b)
    return (lo, hi) if lo <= hi else None


def oracle_polys(template, base, nfree, edge=False):
    def entries(free_vals):
        arr = diamond_array(template, base + tuple(free_vals))
        c = correlate(arr, arr).values.data
        return [c[i] for i in sorted(oracle_edge_sets(arr.shape)["edge" if edge else "off_peak"])]

    return Quadratic.probe(entries, nfree)


def oracle_diamond5(d_max, e_max, base):
    bound = max(abs(p.const) for p in oracle_polys(5, base, 2, edge=True) if p.is_constant())
    polys = oracle_polys(5, base, 2)
    out = []
    for d in range(1, d_max + 1):
        win = window([p.substitute({0: d}) for p in polys], 1, bound, 1, e_max)
        for e in range(win[0], win[1] + 1) if win else ():
            if all(abs(p.eval((d, e))) <= bound for p in polys):
                out.append((base + (d, e), bound))
    return out


def oracle_diamond7(e, f_range, g_max, h_max):
    base, bound = (0, 0, 0, 1, e), 2 * e * e + 2
    polys = oracle_polys(7, base, 3)
    out = []
    for f in f_range:
        at_f = [p.substitute({0: f}) for p in polys]
        gwin = window(at_f, 1, bound, 1, g_max)
        for g in range(gwin[0], gwin[1] + 1) if gwin else ():
            hwin = window([p.substitute({1: g}) for p in at_f], 2, bound, 1, h_max)
            for h in range(hwin[0], hwin[1] + 1) if hwin else ():
                if all(abs(p.eval((f, g, h))) <= bound for p in polys):
                    out.append((base + (f, g, h), bound))
    return out


@pytest.mark.parametrize("e", range(1, 9))
def test_diamond7_matches_the_polynomial_search(e):
    assert [(s.values, s.c_edge) for s in diamond7_solve(e)] == oracle_diamond7(e, range(1, 33), 4096, 4096)


@settings(max_examples=30)
@given(st.integers(1, 8), st.lists(st.integers(1, 40), max_size=4), st.booleans())
def test_diamond7_matches_the_polynomial_search_anywhere(e, f_values, huge):
    top = 2**40 if huge else 4096  # 2^40 squared leaves int64, so the scan runs on Python ints
    got = [(s.values, s.c_edge) for s in diamond7_solve(e, f_values, top, top)]
    assert got == oracle_diamond7(e, f_values, top, top)


@settings(max_examples=30)
@given(
    st.tuples(*[st.integers(0, 12) | st.integers(0, 2**31)] * 4),
    st.integers(0, 8),
    st.integers(1, 40),
)
def test_diamond5_matches_the_polynomial_search(base, d_max, e_max):
    got = [(s.values, s.c_edge) for s in diamond5_solve(d_max, e_max, base)]
    assert got == oracle_diamond5(d_max, e_max, base)


def brute_force_search(quads, bound, first, highs):
    """Every letter vector in the scan range, each checked against every row."""
    n = len(highs) + 1
    out = []
    for x in itertools.product(first, *(range(1, h + 1) for h in highs)):
        monomials = [1, *x, *(v * v for v in x), *(x[i] * x[j] for i, j in itertools.combinations(range(n), 2))]
        if all(abs(sum(int(c) * m for c, m in zip(row, monomials))) <= bound for row in quads):
            out.append(x)
    return out


@given(st.data())
def test_search_matches_brute_force(data):
    """Windows only prune: the scan keeps exactly the brute-force survivors, in
    scan order, also when scaled coefficients push it onto Python ints."""
    n = data.draw(st.integers(2, 3))
    width = 1 + 2 * n + n * (n - 1) // 2
    coefficient = st.sampled_from([0, 0, 1, -1, 2, -3])
    rows = data.draw(st.lists(st.lists(coefficient, min_size=width, max_size=width), min_size=1, max_size=3))
    first = data.draw(st.lists(st.integers(1, 9), max_size=5))
    highs = data.draw(st.lists(st.integers(1, 9), min_size=n - 1, max_size=n - 1))
    bound = data.draw(st.integers(0, 12))
    scale = data.draw(st.sampled_from([1, 2**62]))
    quads = np.array(rows, dtype=object) * scale
    assert _search(quads, bound * scale, first, highs) == brute_force_search(quads, bound * scale, first, highs)


@pytest.mark.parametrize(
    "row",
    [
        [0, 0, 1, -1, 0, 0, 0, 0, 0, 0],  # g - h: no window for g while h is free
        [0, 0, 1, 0, 0, 0, 0, 0, -1, 0],  # g - f*h: the same, through a cross term
        [0, 0, 0, 0, 0, 1, 0, 0, 0, 0],  # g^2 alone gives no linear window
    ],
)
def test_search_windows_only_rows_linear_in_that_letter_alone(row):
    quads = np.array([row], dtype=object)
    assert _search(quads, 2, [1, 2], [6, 6]) == brute_force_search(quads, 2, [1, 2], [6, 6])


def test_diamond5_default_matches_the_polynomial_search():
    assert [(s.values, s.c_edge) for s in diamond5_solve()] == oracle_diamond5(400, 4000, (0, 1, 4, 8))


# -- tensor products and the declarative spec ---------------------------------


def test_tensor_cube_peak():
    h7 = fibonacci_huffman(7, 2)
    cube = tensor_huffman([h7, h7, h7])
    assert cube.shape == (7, 7, 7)
    assert correlate(cube, cube).peak == 18**3  # = 5832


def test_outer_correlation_factorizes(h9):
    h7 = fibonacci_huffman(7, 2)
    sq = tensor_huffman([h9, h7])
    c2 = correlate(sq, sq).values.data
    c9 = correlate(h9, h9).values.data
    c7 = correlate(h7, h7).values.data
    assert np.array_equal(c2, np.outer(c9, c7))


_H9 = HuffmanSpec("catalog", key="H9")
_FIB15 = HuffmanSpec("fibonacci_binet", length=15, b=2)

# to_text line -> (spec, its factor token or None if it cannot be one, the direct build)
SPECS = {
    "family=fibonacci_binet N=15 b=2": (_FIB15, "fibonacci_binet:15:2", lambda: fibonacci_huffman(15, 2)),
    "family=h5_family n=3 variant=odd": (HuffmanSpec("h5_family", n=3, variant="odd"), "h5_family:3:odd",
                                         lambda: h5_family(3, "odd")),
    "family=catalog key=H8x8": (HuffmanSpec("catalog", key="H8x8"), "catalog:H8x8", lambda: catalog("H8x8")),
    "family=catalog key=H8": (HuffmanSpec("catalog", key="H8"), "catalog:H8", lambda: catalog("H8")),
    "family=diamond5 alphabet=0,1,4,8,28,99": (HuffmanSpec("diamond5", alphabet=(0, 1, 4, 8, 28, 99)), None,
                                               lambda: build_diamond(5, (0, 1, 4, 8, 28, 99))),
    "family=diamond7 alphabet=0,0,0,1,3,6,20,36": (HuffmanSpec("diamond7", alphabet=(0, 0, 0, 1, 3, 6, 20, 36)),
                                                   None, lambda: build_diamond(7, (0, 0, 0, 1, 3, 6, 20, 36))),
    "family=outer_product factors=catalog:H9,fibonacci_binet:15:2": (
        HuffmanSpec("outer_product", factors=(_H9, _FIB15)), None,
        lambda: tensor_huffman([catalog("H9"), fibonacci_huffman(15, 2)])),
}


@pytest.mark.parametrize("line", SPECS)
def test_spec_roundtrip(line):
    """Each family's to_text line, factor token round trip and build, as the family table gives them."""
    spec, token, direct = SPECS[line]
    assert spec.to_text() == line
    if token is None:
        with pytest.raises(ConstructError, match="cannot be an outer-product factor"):
            spec._compact()
    else:
        assert spec._compact() == token
        assert HuffmanSpec(**HuffmanSpec._compact_fields(token)) == spec
    assert np.array_equal(build(spec).data, direct().data)


def test_short_h5_factor_token_takes_the_even_variant():
    assert HuffmanSpec(**HuffmanSpec._compact_fields("h5_family:1")) == HuffmanSpec("h5_family", n=1, variant="even")
    assert HuffmanSpec(**HuffmanSpec._compact_fields("h5_family:1"))._compact() == "h5_family:1:even"


@pytest.mark.parametrize("token", ["fibonacci_binet:15", "fibonacci_binet:15:2:2", "h5_family", "catalog",
                                   "diamond5:0", "outer_product:catalog:H9", "foo:1", ""])
def test_bad_factor_token_is_refused(token):
    with pytest.raises(ConstructError, match="bad factor token"):
        HuffmanSpec(**HuffmanSpec._compact_fields(token))


def test_spec_build_dispatch_matches_direct(h15):
    t = build(HuffmanSpec("fibonacci_binet", length=15, b=2))
    assert np.array_equal(t.data, h15.data)


def test_spec_rejects_garbage():
    with pytest.raises(ConstructError):
        HuffmanSpec("unobtainium")
    with pytest.raises(ConstructError):
        HuffmanSpec("fibonacci_binet", length=9)
