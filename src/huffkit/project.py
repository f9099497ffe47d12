"""Discrete line-sum (Mojette-style) projections and alternating-sign twins.

A direction is a tuple of coprime signed integers, written ``p:q`` (or
``p:q:r`` in 3D).  For a 2D tensor ``a[y, x]`` (y = row, x = column) the
projection bins are the linear form

    t = q*x - p*y

offset so the smallest occupied bin lands at index 0.  For a square N x N
input this gives the standard output length n*(N - 1) + 1 with n = |p| + |q|.
In 3D the voxel (x, y, z) = (axis2, axis1, axis0) is binned by the first two
linearly independent forms among (q, -p, 0), (0, r, -q), (r, 0, -p) applied to
(x, y, z) — each of these is constant along the projection direction.

Projections of delta-correlated arrays built as outer products inherit flat
spectra, which is what `spectrally_equivalent_family` enumerates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .lattice import Tensor, _int_dtype, as_tensor, outer_product, write_text
from .metrics import QualityReport, classify

__all__ = [
    "ProjectionError",
    "ProjectionDirection",
    "FamilyMember",
    "as_direction",
    "project",
    "project3",
    "twin",
    "default_directions",
    "spectrally_equivalent_family",
    "write_family",
]


class ProjectionError(ValueError):
    """Raised for invalid directions or operands."""


@dataclass(frozen=True)
class ProjectionDirection:
    """Coprime integer direction ``p:q`` (optionally ``p:q:r``)."""

    p: int
    q: int
    r: int | None = None

    def __post_init__(self):
        comps = self.components
        if any(int(c) != c for c in comps):
            raise ProjectionError(f"direction components must be integers: {self}")
        if all(c == 0 for c in comps):
            raise ProjectionError("direction must not be the zero vector")
        if math.gcd(*(abs(int(c)) for c in comps)) != 1:
            raise ProjectionError(f"direction {self} is not coprime")

    @property
    def components(self) -> tuple[int, ...]:
        if self.r is None:
            return (self.p, self.q)
        return (self.p, self.q, self.r)

    @property
    def n(self) -> int:
        """|p| + |q| (+ |r|); sets the projected length n*(N-1)+1."""
        return sum(abs(c) for c in self.components)

    @classmethod
    def parse(cls, text: str) -> "ProjectionDirection":
        """Parse ``"p:q"`` or ``"p:q:r"``."""
        parts = text.split(":")
        if len(parts) not in (2, 3):
            raise ProjectionError(f"cannot parse direction {text!r}")
        try:
            nums = [int(v) for v in parts]
        except ValueError:
            raise ProjectionError(f"cannot parse direction {text!r}") from None
        return cls(*nums)

    def __str__(self):
        return ":".join(str(c) for c in self.components)


def as_direction(d, ndim: int | None = None) -> ProjectionDirection:
    if isinstance(d, str):
        d = ProjectionDirection.parse(d)
    elif isinstance(d, (tuple, list)):
        d = ProjectionDirection(*(int(c) for c in d))
    elif not isinstance(d, ProjectionDirection):
        raise ProjectionError(f"not a projection direction: {d!r}")
    if ndim is not None and len(d.components) != ndim:
        raise ProjectionError(
            f"direction {d} has {len(d.components)} components, expected {ndim}"
        )
    return d


def _bin_sums(a: Tensor, flat_bins: np.ndarray, shape: tuple[int, ...]) -> Tensor:
    """Accumulate a's elements into bins; exact in integer mode."""
    # |bin sum| <= sum |a| <= size * max|a|
    dtype = _int_dtype(a.size * a.max_abs()) if a.mode == "int" else np.float64
    out = np.zeros(shape, dtype=dtype)
    np.add.at(out.reshape(-1), flat_bins, a.data.reshape(-1).astype(dtype, copy=False))
    return Tensor(out, a.mode)


def project(a, direction) -> Tensor:
    """Project a 2D tensor along ``p:q`` into the 1D bins t = q*x - p*y.

    The output starts at bin 0 (minimal t subtracted) and preserves the total
    sum.  Projecting the outer product of a sequence with itself at (1:1)
    reproduces that sequence's aperiodic auto-correlation exactly.
    """
    a = as_tensor(a)
    if a.ndim != 2:
        raise ProjectionError(f"project expects a 2D tensor, got {a.ndim}D")
    d = as_direction(direction, ndim=2)
    y, x = np.indices(a.shape)
    t = (d.q * x - d.p * y).reshape(-1)
    t -= t.min()
    return _bin_sums(a, t, (int(t.max()) + 1,))


def _independent(f: tuple[int, int, int], g: tuple[int, int, int]) -> bool:
    cross = (
        f[1] * g[2] - f[2] * g[1],
        f[2] * g[0] - f[0] * g[2],
        f[0] * g[1] - f[1] * g[0],
    )
    return any(cross)


def project3(a, direction) -> Tensor:
    """Project a 3D tensor along ``p:q:r`` onto a 2D bin lattice.

    Voxel (x, y, z) = (col, row, plane) goes to the bin indexed by the first
    two linearly independent forms among q*x - p*y, r*y - q*z, r*x - p*z.
    Total sum is preserved.
    """
    a = as_tensor(a)
    if a.ndim != 3:
        raise ProjectionError(f"project3 expects a 3D tensor, got {a.ndim}D")
    d = as_direction(direction, ndim=3)
    p, q, r = d.components
    forms = [(q, -p, 0), (0, r, -q), (r, 0, -p)]
    forms = [f for f in forms if any(f)]
    first = forms[0]
    second = next((f for f in forms[1:] if _independent(first, f)), None)
    if second is None:  # cannot happen for a coprime nonzero direction
        raise ProjectionError(f"degenerate direction {d}")

    z, y, x = np.indices(a.shape)

    def apply(f):
        return (f[0] * x + f[1] * y + f[2] * z).reshape(-1)

    s1, s2 = apply(first), apply(second)
    s1 -= s1.min()
    s2 -= s2.min()
    shape = (int(s1.max()) + 1, int(s2.max()) + 1)
    flat = s1 * shape[1] + s2
    return _bin_sums(a, flat, shape)


def twin(a) -> Tensor:
    """Alternating-sign copy: element at index i along axis 0 gets (-1)^i.

    An involution; auto-correlation magnitudes (and hence all quality
    metrics) match the input's, while the cross-correlation between an array
    and its twin stays low.
    """
    a = as_tensor(a)
    signs = np.ones(a.shape[0], dtype=np.int64)
    signs[1::2] = -1
    shaped = signs.reshape((-1,) + (1,) * (a.ndim - 1))
    data = a.data
    if a.mode == "int":  # |-a| <= max|a|, which is 2^63 for an entry of -2^63
        data = data.astype(_int_dtype(a.max_abs()), copy=False)
    return Tensor(data * shaped, a.mode)


def default_directions(max_n: int = 5) -> tuple[ProjectionDirection, ...]:
    """All distinct 2D directions with |p| + |q| <= max_n, sign-normalized.

    (p:q) and (-p:-q) project to reverses of each other, so only the
    representative with p > 0 (or (0:1)) is listed.  Ordered by n, then p,
    then q, so family output is deterministic.
    """
    dirs = []
    for p in range(0, max_n + 1):
        for q in range(-max_n, max_n + 1):
            if p == 0 and q <= 0:
                continue
            if p + abs(q) > max_n or p + abs(q) == 0:
                continue
            if math.gcd(p, abs(q)) != 1:
                continue
            dirs.append(ProjectionDirection(p, q))
    return tuple(sorted(dirs, key=lambda d: (d.n, d.p, d.q)))


class FamilyMember(NamedTuple):
    direction: ProjectionDirection
    tensor: Tensor
    report: QualityReport


def spectrally_equivalent_family(
    seed,
    directions: Sequence | None = None,
    out_dir=None,
) -> list[FamilyMember]:
    """Project outer_product([seed, seed]) along each direction.

    Each member carries its own QualityReport; diagonal directions give the
    seed's auto-correlation (peak C0^2 + 2 for a canonical seed), while mixed
    directions keep the side-lobe ratio pinned at the seed's C0.  When
    ``out_dir`` is given the family is also written to disk via
    `write_family`.
    """
    seed = as_tensor(seed)
    if seed.ndim != 1:
        raise ProjectionError("family seed must be 1D")
    seed_class = classify(seed).classification
    if seed_class == "other":
        raise ProjectionError(
            "family seed must be delta-correlated (canonical or quasi), "
            f"got {seed_class!r}"
        )
    if directions is None:
        directions = default_directions()
    grid = outer_product([seed, seed])
    members = []
    for d in directions:
        d = as_direction(d, ndim=2)
        t = project(grid, d)
        members.append(FamilyMember(d, t, classify(t)))
    if out_dir is not None:
        write_family(out_dir, members)
    return members


def write_family(out_dir, members: Sequence[FamilyMember]) -> Path:
    """Write one tensor text file per member plus index.csv; returns the index path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    index = out / "index.csv"
    with open(index, "w") as fh:
        fh.write("direction,length,file,R,M,S,bits,OP\n")
        for m in members:
            name = "family_" + str(m.direction).replace(":", "_") + ".txt"
            write_text(m.tensor, out / name)
            fh.write(f"{m.direction},{m.tensor.size},{name},{m.report.csv_row()}\n")
    return index
