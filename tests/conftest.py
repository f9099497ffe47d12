"""Shared fixtures and the independent correlation oracle.

The oracle below is deliberately naive — nested Python loops over every
displacement, exact int arithmetic — so the package's numpy engine (direct
int64, certified float FFT, limb split and real paths) is always checked
against something with no shared code path.
"""

from __future__ import annotations

import functools
import itertools
from decimal import Decimal, getcontext, localcontext
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


def oracle_correlate(a, b):
    """Full aperiodic cross-correlation by shift-and-sum: C(s) = sum a(r) b(r+s).

    Works in any dimension; returns a nested-list-backed object ndarray of
    Python ints (or floats if the inputs are real), indexed so that the
    zero-shift term sits at index (a.shape - 1) per axis.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    assert a.ndim == b.ndim
    out_shape = tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape))
    def _py(v):
        return v.item() if isinstance(v, np.generic) else v

    out = np.zeros(out_shape, dtype=object)
    for s_out in itertools.product(*(range(n) for n in out_shape)):
        shift = tuple(s - (na - 1) for s, na in zip(s_out, a.shape))
        total = 0
        for r in itertools.product(*(range(n) for n in a.shape)):
            q = tuple(ri + si for ri, si in zip(r, shift))
            if all(0 <= qi < nb for qi, nb in zip(q, b.shape)):
                total += _py(a[r]) * _py(b[q])
        out[s_out] = total
    return out


def oracle_autocorrelate(a):
    return oracle_correlate(a, a)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def h9():
    from huffkit.construct import catalog

    return catalog("H9")


@pytest.fixture
def h9x9():
    from huffkit.construct import catalog, tensor_huffman

    h = catalog("H9")
    return tensor_huffman([h, h])


@pytest.fixture
def h15():
    from huffkit.construct import fibonacci_huffman

    return fibonacci_huffman(15, 2)


def oracle_ring(shape):
    """Indices of an array of ``shape`` with some axis at its first or last entry, row-major."""
    return [
        idx
        for idx in itertools.product(*(range(n) for n in shape))
        if any(i in (0, n - 1) for i, n in zip(idx, shape))
    ]


def oracle_edge_sets(shape):
    """The index sets of the full auto-correlation of an operand of ``shape``.

    Written from the definitions, one index at a time: the zero shift sits at
    N - 1 per axis; the ends are the corners (every axis at an extreme shift)
    plus, when every extent is odd and at least 3, the diagonal tips at
    shifts (+/-(N_1 - 1)/2, ..., +/-(N_n - 1)/2).  ``edge`` is the outer ring
    plus the tips, ``interior`` everything off the ring, ``off_peak``
    everything; the zero shift is in none of these three.
    """
    full = tuple(2 * n - 1 for n in shape)
    zero = tuple(n - 1 for n in shape)
    every = set(itertools.product(*(range(f) for f in full)))
    ring = set(oracle_ring(full))
    corners = set(itertools.product(*((0, f - 1) for f in full)))
    tips = set()
    if all(n % 2 == 1 and n >= 3 for n in shape):
        steps = itertools.product(*((-((n - 1) // 2), (n - 1) // 2) for n in shape))
        tips = {tuple(z + s for z, s in zip(zero, step)) for step in steps}
    return {
        "ends": corners | tips,
        "edge": (ring | tips) - {zero},
        "interior": every - ring - {zero},
        "off_peak": every - {zero},
    }


def oracle_edge_values(c, shape):
    """(op, C_edge, classification) of auto-correlation values ``c`` from the index sets."""
    sets = oracle_edge_sets(shape)

    def top(indices):
        return max((abs(c[i]) for i in indices), default=0)

    c_edge = top(sets["edge"])
    if not any(c[i] for i in sets["interior"]):
        kind = "canonical"
    elif top(sets["off_peak"]) <= c_edge:
        kind = "quasi"
    else:
        kind = "other"
    return top(sets["off_peak"] - sets["ends"]), c_edge, kind


def _atan_inverse(n: int) -> Decimal:
    """atan(1/n) by its Taylor series, at the current decimal precision."""
    x2, power, total, k = n * n, Decimal(1) / n, Decimal(0), 0
    while power > Decimal(10) ** -(getcontext().prec + 5):
        total += (-1) ** k * power / (2 * k + 1)
        power /= x2
        k += 1
    return total


@functools.lru_cache(maxsize=None)
def decimal_pi(digits: int) -> Decimal:
    """pi to at least ``digits`` significant digits, by Machin's formula."""
    with localcontext() as ctx:
        ctx.prec = digits + 5
        return 16 * _atan_inverse(5) - 4 * _atan_inverse(239)


def decimal_cos_sin(x: Decimal) -> tuple[Decimal, Decimal]:
    """(cos x, sin x) by their Taylor series, for |x| <= 2 pi, at the current precision."""
    cos = sin = Decimal(0)
    term, k = Decimal(1), 0
    while k < 2 or abs(term) > Decimal(10) ** -(getcontext().prec + 5):
        if k % 2 == 0:
            cos += term if k % 4 == 0 else -term
        else:
            sin += term if k % 4 == 1 else -term
        k += 1
        term = term * x / k
    return cos, sin


def oracle_power_spectrum(a, grid, digits: int = 50) -> list[Decimal]:
    """|F_k|^2 of integer array ``a`` zero-padded to ``grid``, by the defining DFT sum.

    Every bin is sum_r a(r) exp(-2 pi i k.r / m) in ``digits``-digit decimals,
    with cos and sin from their Taylor series: no FFT and no correlation.
    """
    a = np.asarray(a, dtype=object)
    size = int(np.prod(grid))
    with localcontext() as ctx:
        ctx.prec = digits + 10
        pi = decimal_pi(digits + 10)
        table = [decimal_cos_sin(2 * pi * j / size) for j in range(size)]
        out = []
        for k in itertools.product(*(range(m) for m in grid)):
            re = im = Decimal(0)
            for r in itertools.product(*(range(n) for n in a.shape)):
                if a[r]:
                    cos, sin = table[sum(ki * ri * (size // m) for ki, ri, m in zip(k, r, grid)) % size]
                    re += int(a[r]) * cos
                    im -= int(a[r]) * sin
            out.append(re * re + im * im)
        return out
