"""Generators for delta-correlated integer sequences and arrays.

Three families are covered:

* the generalized-Fibonacci construction (`fibonacci_huffman`), which yields
  sequences whose auto-correlation is exactly zero off-peak except for the
  unit-magnitude end values;
* small closed-form families (`h5_family`) and a catalog of fixed reference
  arrays (`catalog`);
* diamond-patterned 5x5 and 7x7 integer arrays found by exhaustive
  Diophantine search (`diamond5_solve`, `diamond7_solve`, `build_diamond`).
  Every off-peak correlation entry of a template is a quadratic in its free
  letters; the solvers fit these once into an integer coefficient matrix and
  scan whole letter windows with exact array arithmetic.

Outer products of 1D members (`tensor_huffman`) give the multi-dimensional
arrays.  A `HuffmanSpec` names any of these arrays; one family table,
`_FAMILIES`, holds each family's builder and its fields, which `build`, the
spec's own field check, the ``key=value`` text and the ``family:value`` factor
tokens all read.

All constructions are deterministic and exact; solvers return results in
lexicographic alphabet order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from . import _LAZY
from .lattice import Tensor, _edge_sets, _int_dtype, as_tensor, correlate, outer_product
from .metrics import QualityReport, classify

__all__ = list(_LAZY["construct"])


class ConstructError(ValueError):
    """Domain error for invalid construction parameters."""


# ---------------------------------------------------------------------------
# generalized-Fibonacci sequences


def phi_value(k: int, b: int = 2) -> int:
    """Element k of the generalized Fibonacci sequence for up-scaling b/2.

    Recurrence: phi(k+1) = (b/2)*phi(k) + phi(k-1) with phi(0) = 0,
    phi(1) = 1 (so b=2 gives the Fibonacci numbers, b=4 the Pell numbers).
    Negative indices follow phi(-k) = (-1)**(k+1) * phi(k).
    """
    if b < 2 or b % 2:
        raise ConstructError(f"up-scaling base b must be even and >= 2, got {b}")
    if k < 0:
        return (-1) ** (k + 1) * phi_value(-k, b)
    c = b // 2
    lo, hi = 0, 1  # phi(0), phi(1)
    for _ in range(k):
        lo, hi = hi, c * hi + lo
    return lo


def fibonacci_huffman(N: int, b: int = 2) -> Tensor:
    """Length-N sequence with canonical delta auto-correlation.

    The first half is [1, b*phi(1), ..., b*phi(M)] with M = (N-3)/2; the
    second half mirrors it with alternating signs, and the single middle
    element is the exact rational solution of the shift-2 correlation
    constraint (always an integer for even b).  The result's auto-correlation
    is [c,0,...,0,C0,0,...,0,c] with |c| = 1.
    """
    if N < 7 or N % 4 != 3:
        raise ConstructError(f"length must be 7, 11, 15, ... (4n+3), got {N}")
    if b < 2 or b % 2:
        raise ConstructError(f"up-scaling base b must be even and >= 2, got {b}")
    M = (N - 3) // 2
    first = [1] + [b * phi_value(k, b) for k in range(1, M + 1)]
    m = (N + 1) // 2
    h: list = first + [None] + [(-1) ** k * first[m - k - 1] for k in range(1, m)]

    # middle element from C(2) = 0; every other even shift then vanishes by
    # the bilinear index-reduction identity of the phi values.
    const, coeff = Fraction(0), Fraction(0)
    for i in range(N - 2):
        vi, vj = h[i], h[i + 2]
        if vi is None:
            coeff += vj
        elif vj is None:
            coeff += vi
        else:
            const += Fraction(vi * vj)
    x = -const / coeff
    if x.denominator != 1:
        raise ConstructError(f"no integer middle element for N={N}, b={b}")
    h[m - 1] = int(x)
    return Tensor.from_values(h, "int")


def h5_family(n: int, variant: str = "even") -> Tensor:
    """The two one-parameter 5-element families.

    variant="even": [1, 2n, 2n**2, -2n, 1], auto-correlation
    [1,0,0,0,C0,0,0,0,1] with C0 = 4n**4 + 8n**2 + 2 (canonical).
    variant="odd": [1, 2n+1, 2n(n+1), -(2n+1), 1], auto-correlation
    [1,0,-1,0,C0,0,-1,0,1] (quasi).
    """
    if n == 0:
        raise ConstructError("n = 0 degenerates to a padded delta; rejected")
    if variant == "even":
        seq = [1, 2 * n, 2 * n * n, -2 * n, 1]
    elif variant == "odd":
        seq = [1, 2 * n + 1, 2 * n * (n + 1), -(2 * n + 1), 1]
    else:
        raise ConstructError(f"unknown h5 variant {variant!r}")
    return Tensor.from_values(seq, "int")


# ---------------------------------------------------------------------------
# fixed catalog

_CATALOG: dict[str, tuple[str, list]] = {
    "H9": (
        "9-element quasi delta sequence, C0=64, merit factor 1024",
        [1, 3, 4, 2, -2, -2, 4, -3, 1],
    ),
    "H8": (
        "8-element 3-bit quasi delta sequence, C0=49, side-lobe ratio 24.5",
        [1, 3, 4, 0, -3, 3, -2, 1],
    ),
    "H4": (
        "4-element quasi delta sequence, the smallest even-length example",
        [1, 1, 2, -1],
    ),
    "H8x8": (
        "8x8 integer array whose diagonal sum is a delta [1,0,...,50,...,0,1]",
        [
            [1, 3, 4, 0, -3, 3, -2, 1],
            [3, 11, 13, 0, -10, 10, -6, 2],
            [4, 13, 15, 0, -12, 12, -7, 3],
            [0, 0, 0, 0, 0, 0, 0, 0],
            [-3, -10, -12, 0, 9, -9, 6, -2],
            [3, 10, 12, 0, -9, 10, -6, 2],
            [-2, -6, -7, 0, 6, -6, 3, -1],
            [1, 2, 3, 0, -2, 2, -1, 1],
        ],
    ),
}


def catalog(key: str) -> Tensor:
    """Fixed reference array by name, case-insensitive; an unknown name's error lists the keys."""
    by_fold = {k.casefold(): v for k, v in _CATALOG.items()}
    entry = by_fold.get(key.casefold())
    if entry is None:
        raise ConstructError(f"unknown catalog key {key!r}; known: {sorted(_CATALOG)}")
    return Tensor.from_values(entry[1], "int")


# ---------------------------------------------------------------------------
# diamond 5x5 / 7x7 templates and Diophantine solvers

_SIGNS5 = (1, 1, 1, -1, 1)
_SIGNS7 = (1, 1, 1, 1, -1, 1, -1)


def _fold_template(letters_to_block, signs: tuple[int, ...], letters) -> np.ndarray:
    n = len(signs)
    block = letters_to_block(letters)  # Python ints, so 2(c + f) of the 7x7 block is exact
    out = np.zeros((n, n), dtype=_int_dtype(max(abs(v) for row in block for v in row)))
    for i in range(n):
        for j in range(n):
            out[i, j] = signs[i] * signs[j] * block[min(i, n - 1 - i)][min(j, n - 1 - j)]
    return out


def _block5(v):
    a, b, c, d, e, f = v
    return [[a, b, c], [b, d, e], [c, e, f]]


def _block7(v):
    a, b, c, d, e, f, g, h = v
    return [[a, b, c, d], [b, 2 * c, e, f], [c, e, 2 * (c + f), g], [d, f, g, h]]


_TEMPLATES = {5: (_block5, _SIGNS5), 7: (_block7, _SIGNS7)}


def diamond_array(template: int, letters) -> Tensor:
    """The 5x5 (6 letters) or 7x7 (8 letters) diamond array of an alphabet.

    Unlike :func:`build_diamond`, it does not recheck the quasi property.
    """
    if template not in _TEMPLATES:
        raise ConstructError(f"template must be 5 or 7, got {template}")
    letters = tuple(int(v) for v in letters)
    if len(letters) != template + 1:
        raise ConstructError(f"{template}x{template} template takes a {template + 1}-letter alphabet")
    return Tensor(_fold_template(*_TEMPLATES[template], letters), "int")


@dataclass(frozen=True)
class AlphabetSolution:
    """One solved alphabet for a diamond template.

    ``values`` is the full letter tuple (6 letters for 5x5, 8 for 7x7);
    ``c_edge`` the edge-correlation bound the solution satisfies;
    ``report`` the solver's :class:`QualityReport` of the materialized array
    (left out of comparisons).
    """

    template: int
    values: tuple[int, ...]
    c_edge: int
    report: QualityReport = field(compare=False)

    def build(self) -> Tensor:
        return build_diamond(self.template, self.values)


def _columns(nvars: int) -> np.ndarray:
    """Factor indices (p, q) of each coefficient column, in y = (1, x_1, ..., x_n).

    Column c multiplies the monomial y[p[c]] * y[q[c]], p <= q: the constant,
    then the linear terms, the squares and the cross terms x_i x_j (i < j).
    """
    letters = range(1, nvars + 1)
    pairs = [(0, 0), *((0, i) for i in letters), *((i, i) for i in letters)]
    return np.array(pairs + list(itertools.combinations(letters, 2))).T


def _fit_quadratics(fn, nvars: int) -> np.ndarray:
    """Coefficient matrix of the vector-valued quadratic fn(letters).

    Row r holds entry r's exact Python-int coefficients in the column order
    of ``_columns``, found by finite differences at zero, at +-1 in each
    letter and at +1 in each pair of letters.
    """

    def at(assign: dict[int, int]) -> np.ndarray:
        return np.array(fn([assign.get(i, 0) for i in range(nvars)]), dtype=object)

    base = at({})
    plus = [at({i: 1}) for i in range(nvars)]
    minus = [at({i: -1}) for i in range(nvars)]
    lin = [(p - m) // 2 for p, m in zip(plus, minus)]
    sq = [(p + m) // 2 - base for p, m in zip(plus, minus)]
    cross = [
        at({i: 1, j: 1}) - base - lin[i] - lin[j] - sq[i] - sq[j]
        for i, j in itertools.combinations(range(nvars), 2)
    ]
    return np.column_stack([base, *lin, *sq, *cross])


def _search(quads: np.ndarray, bound: int, first, highs) -> list[tuple[int, ...]]:
    """Every letter vector whose quadratics all stay within +-``bound``.

    The first letter takes the values of ``first`` in order, and letter k >= 1
    runs over [1, highs[k-1]].  For all prefixes at once, each letter is
    pruned to the window |a + b*x| <= bound of every row that, with the
    prefix substituted, is linear in that letter alone (floor division keeps
    it exact).  The survivors are checked against every row in one product
    with their monomials, and come back in scan order (``first``'s order,
    then ascending).  The arithmetic is int64 when the worst case
    sum|coef| * max(letter)^2 + bound fits, else on Python-int object arrays.
    """
    p, q = _columns(len(highs) + 1)
    reach = max([1, *(abs(x) for x in first), *highs])
    worst = max(1, int(np.abs(quads).sum(axis=1).max()))
    dtype = _int_dtype(worst * reach * reach + bound)
    quads = quads.astype(dtype)
    prefix = np.array([[1, x] for x in first], dtype=dtype).reshape(-1, 2)

    def slope(v: int, k: int) -> np.ndarray:  # coefficient of y[v] once y[:k] is substituted
        cols = (q == v) & (p < k)
        return prefix[:, p[cols]] @ quads[:, cols].T

    for k, high in enumerate(highs, start=2):  # k indexes y; prefix holds y[:k]
        fixed = q < k
        a = (prefix[:, p[fixed]] * prefix[:, q[fixed]]) @ quads[:, fixed].T
        b = slope(k, k)
        alone = ~np.any(quads[:, p >= k] != 0, axis=1)  # no x_k^2 and no later letter left over
        for v in range(k + 1, len(highs) + 2):
            alone = alone & (slope(v, k) == 0)
        a, b = np.where(b < 0, -a, a), np.abs(b)
        bounded = alone & (b != 0)
        step = np.where(bounded, b, 1)
        lo = np.where(bounded, -((bound + a) // step), 1).max(axis=1, initial=1)
        hi = np.where(bounded, (bound - a) // step, high).min(axis=1, initial=high)
        lost = np.any(alone & (b == 0) & (np.abs(a) > bound), axis=1) | (hi < lo)
        count = np.where(lost, 0, hi - lo + 1).astype(np.int64)
        offsets = np.arange(count.sum()) - np.repeat(np.cumsum(count) - count, count)
        letter = np.repeat(lo, count) + offsets.astype(dtype)
        prefix = np.column_stack([np.repeat(prefix, count, axis=0), letter])
    values = (prefix[:, p] * prefix[:, q]) @ quads.T
    return [tuple(row) for row in prefix[np.all(np.abs(values) <= bound, axis=1), 1:].tolist()]


def _quadratics(template: int, base: tuple[int, ...], nfree: int) -> np.ndarray:
    """Coefficient matrix of the template's off-peak auto-correlation entries, in the trailing ``nfree`` letters."""
    indices = _edge_sets((template, template)).off_peak

    def at(free_vals):
        t = diamond_array(template, base + tuple(free_vals))
        return correlate(t, t).values.data.reshape(-1)[indices]

    return _fit_quadratics(at, nfree)


def diamond5_solve(
    d_max: int = 400,
    e_max: int = 4000,
    base: tuple[int, int, int, int] = (0, 1, 4, 8),
) -> list[AlphabetSolution]:
    """All positive integer (d, e) completing ``base`` to a quasi 5x5 array.

    The first four letters are fixed (default: the 0,1,4,8 family whose array
    border gives an edge-correlation bound of 18); the last two are scanned
    exhaustively with window pruning, keeping every alphabet whose off-peak
    auto-correlation magnitudes all stay within the bound.
    """
    quads = _quadratics(5, base, 2)
    bound = _edge_bound(5, quads)
    return [_solution(5, base + v, bound) for v in _search(quads, bound, range(1, d_max + 1), (e_max,))]


def diamond7_solve(
    e: int,
    f_range=range(1, 33),
    g_max: int = 1 << 12,
    h_max: int = 1 << 12,
) -> list[AlphabetSolution]:
    """All positive (f, g, h) quasi alphabets [0,0,0,1,e,f,g,h] for the 7x7.

    The corner letters are zero and d = 1, so the inner-diamond edge
    correlation fixes the bound (``_edge_bound``) at 2e**2 + 2.  f = 0 is
    excluded by default: it decouples h and yields a degenerate
    unconstrained family.  For e = 3
    the closed form g = f**2/2 + 1, h = f**3/8 + f (even f) lands inside the
    solution set; the search also returns the neighbouring solutions.
    """
    if e < 1:
        raise ConstructError(f"e must be a positive integer, got {e}")
    f_values = [int(f) for f in f_range]
    if any(f < 1 for f in f_values):
        raise ConstructError("f_range must contain positive integers only")
    base = (0, 0, 0, 1, e)
    quads = _quadratics(7, base, 3)
    bound = _edge_bound(7, quads)
    return [_solution(7, base + v, bound) for v in _search(quads, bound, f_values, (g_max, h_max))]


def diamond7_closed_form(f: int) -> tuple[int, int]:
    """(g, h) = (f**2/2 + 1, f**3/8 + f) for even f in the e=3 family."""
    if f < 2 or f % 2:
        raise ConstructError(f"closed form needs positive even f, got {f}")
    return f * f // 2 + 1, f**3 // 8 + f


def _edge_bound(template: int, quads: np.ndarray) -> int:
    """Edge-correlation bound of a template family.

    The quasi criterion compares off-peak correlations against the value at
    the maximal-overlap shifts, ``lattice._edge_sets(shape).edge`` (the outer
    ring plus the diagonal tips).  For a solver, only the part of that edge
    set fixed by the template -- the entries that do not involve the scanned
    letters -- can serve as the bound; the rest are constrained by it like
    any other off-peak entry.  Its rows are read from the family's
    ``_quadratics``, since the edge set is off-peak too.
    """
    sets = _edge_sets((template, template))
    fixed = quads[np.isin(sets.off_peak, sets.edge) & ~np.any(quads[:, 1:] != 0, axis=1), 0]
    if not fixed.size:
        raise ConstructError("template has no fixed edge-correlation entries")
    return int(np.abs(fixed).max())


def _solution(template: int, values: tuple[int, ...], bound: int) -> AlphabetSolution:
    return AlphabetSolution(template, values, bound, classify(diamond_array(template, values)))


def _structural_bound(template: int, values: tuple[int, ...]) -> int:
    """Template-level edge-correlation bound from the letters alone: the
    array-border end-correlation for the 5x5, the inner-diamond tip
    correlation 2e**2 + 2d**2 for the 7x7."""
    if template == 7:
        d, e = values[3], values[4]
        return 2 * e * e + 2 * d * d
    a, b, c = values[0], values[1], values[2]
    return 2 * a * a + 2 * b * b + c * c


def build_diamond(template: int, alphabet) -> Tensor:
    """Materialize a 5x5 or 7x7 diamond array and recheck the quasi property.

    ``alphabet`` is an AlphabetSolution or the raw letter tuple.  The recheck
    requires every off-peak correlation entry away from the edge set (outer
    ring and diagonal tips) to stay within the larger of the measured edge
    value and the template's structural edge bound; alphabets violating that
    raise.  (The published example arrays need the structural bound: halo
    letters can partially cancel the tip correlations of the 7x7 diamond,
    deflating the measured edge value below genuinely small side lobes.)
    """
    if isinstance(alphabet, AlphabetSolution):
        if alphabet.template != template:
            raise ConstructError(
                f"solution is for the {alphabet.template}x{alphabet.template} template"
            )
        alphabet = alphabet.values
    values = tuple(int(v) for v in alphabet)
    arr = diamond_array(template, values)
    rep = classify(arr)
    bound = max(int(rep.C_edge), _structural_bound(template, values))
    if rep.OP > bound:
        raise ConstructError(
            f"alphabet {values} violates the quasi constraint: off-peak "
            f"correlation {rep.OP} exceeds the edge bound {bound}"
        )
    return arr


# ---------------------------------------------------------------------------
# tensor products and the declarative spec


def tensor_huffman(specs) -> Tensor:
    """Outer product of 1D factors given as HuffmanSpec, Tensor or sequence."""
    factors = []
    for s in specs:
        t = build(s) if isinstance(s, HuffmanSpec) else as_tensor(s)
        if t.ndim != 1:
            raise ConstructError("tensor_huffman factors must be 1D")
        factors.append(t)
    return outer_product(factors)


# family -> (builder, fields, least).  ``fields`` holds one (text key,
# attribute, parser) triple per field, in to_text's order; a field without a
# parser is a sequence, written comma-joined.  ``least`` is the fewest values
# an outer-product factor token family:value[:value...] may give (an omitted
# value keeps the HuffmanSpec default), or None if the family cannot be one.
_FAMILIES = {
    "fibonacci_binet": (lambda s: fibonacci_huffman(s.length, s.b), (("N", "length", int), ("b", "b", int)), 2),
    "h5_family": (lambda s: h5_family(s.n, s.variant), (("n", "n", int), ("variant", "variant", str)), 1),
    "catalog": (lambda s: catalog(s.key), (("key", "key", str),), 1),
    "outer_product": (lambda s: tensor_huffman(s.factors), (("factors", "factors", None),), None),
    "diamond5": (lambda s: build_diamond(5, s.alphabet), (("alphabet", "alphabet", None),), None),
    "diamond7": (lambda s: build_diamond(7, s.alphabet), (("alphabet", "alphabet", None),), None),
}


@dataclass(frozen=True)
class HuffmanSpec:
    """Declarative description of a constructible array.

    Serializes to a flat ``key=value`` line, e.g.::

        family=fibonacci_binet N=15 b=2
        family=h5_family n=1 variant=even
        family=catalog key=H9
        family=diamond5 alphabet=0,1,4,8,28,99
        family=outer_product factors=catalog:H9,fibonacci_binet:15:2

    which names the CLI's files and run records.  Rebuilding from a spec is
    deterministic and bit-exact.  A spec holds each field `_FAMILIES` says its
    family reads (``b`` and ``variant`` have defaults) and leaves every other
    field at its default; otherwise it raises ``TypeError``, as a call with a
    missing or unexpected argument does.
    """

    family: str
    length: int | None = None
    b: int = 2
    n: int | None = None
    variant: str = "even"
    key: str | None = None
    alphabet: tuple[int, ...] | None = None
    factors: tuple["HuffmanSpec", ...] | None = None

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ConstructError(f"unknown family {self.family!r}")
        reads = [attr for _, attr, _ in _FAMILIES[self.family][1]]
        if foreign := [f.name for f in fields(self)[1:] if f.name not in reads and getattr(self, f.name) != f.default]:
            raise TypeError(f"{self.family} does not read {', '.join(foreign)}")
        if missing := [attr for attr in reads if getattr(self, attr) is None]:
            raise TypeError(f"{self.family} needs {', '.join(missing)}")
        if self.family == "fibonacci_binet" and self.length % 4 != 3:
            raise ConstructError("fibonacci_binet needs length N = 4n+3")
        if self.family == "fibonacci_binet" and (self.b < 2 or self.b % 2):
            raise ConstructError("fibonacci_binet needs even b >= 2")

    def to_text(self) -> str:
        parts = [f"family={self.family}"]
        for key, attr, parser in _FAMILIES[self.family][1]:
            value = getattr(self, attr)
            if parser is None:
                value = ",".join(v._compact() if isinstance(v, HuffmanSpec) else str(v) for v in value)
            parts.append(f"{key}={value}")
        return " ".join(parts)

    def _compact(self) -> str:
        _, fields, least = _FAMILIES[self.family]
        if least is None:
            raise ConstructError(f"{self.family} cannot be an outer-product factor")
        return ":".join([self.family, *(str(getattr(self, attr)) for _, attr, _ in fields)])

    @staticmethod
    def _compact_fields(token: str) -> dict:
        """The keyword arguments of factor token family:value[:value...]; refused unless it parses."""
        family, *values = token.split(":")
        _, fields, least = _FAMILIES.get(family, (None, (), None))
        try:
            if least is not None and least <= len(values) <= len(fields):
                return dict(family=family, **{attr: parser(v) for (_, attr, parser), v in zip(fields, values)})
        except ValueError:  # a value its field's parser refuses
            pass
        raise ConstructError(f"bad factor token {token!r}")


def build(spec: HuffmanSpec) -> Tensor:
    """Materialize a HuffmanSpec."""
    return _FAMILIES[spec.family][0](spec)
