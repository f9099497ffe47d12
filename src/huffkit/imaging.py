"""Diffuse-mask imaging experiments: encode/decode, iterative deblurring,
two-shot pedestal acquisition, ghost imaging, and the random / multiplex
baselines.

Conventions shared by every operation here:

* encode scans the mask across the object: B(s) = sum_r O(r) H(r - s), the
  full cross-correlation at extent No + Nm - 1 per axis (an impulse object
  therefore yields a flipped, shifted copy of the mask, and a 1x1 delta mask
  is the identity);
* decode convolves the blurred image with the same mask — equivalently,
  correlates with the coordinate-inverted mask — so the two steps telescope
  through the mask auto-correlation and the estimate comes out unflipped;
  the result is cropped to the fully-overlapped ("valid") region, which is
  exactly the object extent;
* the other experiments are built on these two: the pedestal difference
  C(H + kappa, O) - C(-H + kappa, O) is exactly 2 * encode for any
  admissible kappa, ghost imaging decodes its bucket with the signed H, and
  the noise study decodes the noise alone, decode being linear;
* the de-blur recursion subtracts alias copies using the *off-peak* part of
  the mask auto-correlation: o <- o1 - convolve(o, A_off)/C0, run at full
  size and cropped to the valid region at the end;
* ``_least_kappa`` is the least admissible pedestal kappa, and ``_energy``
  the one refusal of a zero-energy mask, C0 = 0;
* all Monte-Carlo helpers derive one RNG per trial from (seed, trial index)
  through a 64-bit mix, so results never depend on execution order.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import _LAZY
from .lattice import Tensor, _auto_lags, _auto_peak, _convolver, _int_dtype, _ring, as_tensor, convolve, correlate

__all__ = list(_LAZY["imaging"])


class ImagingError(ValueError):
    """Domain error for imaging experiments."""


# ---------------------------------------------------------------------------
# seeding


def _mix64(seed: int, index: int) -> int:
    """splitmix64 step on seed+index; the per-trial seeding rule."""
    mask = (1 << 64) - 1
    z = (int(seed) + int(index) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def trial_rng(seed: int, index: int) -> np.random.Generator:
    """Independent generator for one Monte-Carlo trial."""
    return np.random.default_rng(_mix64(seed, index))


# ---------------------------------------------------------------------------
# encode / decode


def _operands(x, y) -> tuple[Tensor, Tensor]:
    """Both operands as tensors; refused unless their dimensionalities match."""
    x, y = as_tensor(x), as_tensor(y)
    if x.ndim != y.ndim:
        raise ImagingError(f"dimensionality mismatch: {x.ndim}D vs {y.ndim}D")
    return x, y


def valid_region(outer_shape: Sequence[int], inner_shape: Sequence[int]) -> tuple[slice, ...]:
    """Fully-overlapped slice of correlate(outer, inner): length No - Ni + 1.

    For a blurred image correlated back with its mask this is exactly the
    original object extent.
    """
    if len(outer_shape) != len(inner_shape):
        raise ImagingError("dimensionality mismatch")
    if any(o < i for o, i in zip(outer_shape, inner_shape)):
        raise ImagingError(
            f"no fully-overlapped region for extents {tuple(outer_shape)} vs "
            f"{tuple(inner_shape)}"
        )
    return tuple(slice(i - 1, o) for o, i in zip(outer_shape, inner_shape))


def _energy(mask: Tensor) -> float:
    """C0 = sum(H^2) as a float, which normalises every result here; refused when 0."""
    c0 = float(_auto_peak(mask))
    if c0 == 0.0:
        raise ImagingError("zero-energy mask: C0 = 0 leaves nothing finite to scale by")
    return c0


def _least_kappa(mask: Tensor, scheme: str):
    """Least admissible kappa: max|H| for ``"pedestal"`` (+-H + kappa >= 0), else max(0, -min H) (H + kappa >= 0).

    A Python int for an integer mask, so exact at any magnitude; a float otherwise.
    """
    cast = int if mask.mode == "int" else float
    low, high = cast(mask.data.min()), cast(mask.data.max())
    return max(abs(low), abs(high)) if scheme == "pedestal" else max(cast(0), -low)


def _admit_kappa(mask: Tensor, kappa, scheme: str) -> None:
    kappa = np.asarray(kappa).item()  # a Python number, which compares with an int need exactly, as numpy's do not
    if isinstance(kappa, float) and not math.isfinite(kappa):
        raise ImagingError(f"{scheme} kappa must be finite, got {kappa}")
    if kappa < (need := _least_kappa(mask, scheme)):
        raise ImagingError(f"{scheme} kappa={kappa} leaves a mask exposure negative (needs >= {need})")


def encode(obj, mask) -> Tensor:
    """Blur: scan the mask across the object, B(s) = sum_r O(r) H(r - s).

    Output extent is No + Nm - 1 per axis.  An impulse object gives back a
    flipped, shifted copy of the mask; a 1x1 delta mask leaves the object
    unchanged.
    """
    obj, mask = _operands(obj, mask)
    return correlate(mask, obj).values


def decode(blurred, mask) -> Tensor:
    """First-order estimate O1: convolve with the mask, crop to valid region.

    Convolving undoes the flip picked up in encode, so the composition is the
    object filtered by the mask *auto-correlation*.  Unnormalized — divide by
    the mask's C0 for grey values; O1/C0 then differs from the object by
    aliases bounded by the mask's 1/R.
    """
    blurred, mask = _operands(blurred, mask)
    full = convolve(blurred, mask)
    sel = valid_region(blurred.shape, mask.shape)
    return Tensor(np.ascontiguousarray(full.data[sel]), full.mode)


# ---------------------------------------------------------------------------
# iterative deblurring


class DeblurResult(NamedTuple):
    estimate: Tensor  # cropped to the object extent, normalized by C0
    iterations: int  # estimates computed (p); 1 means plain decode
    diverged: bool
    step_sizes: tuple[float, ...]  # max-abs change per recursion step


def deblur(blurred, mask, iterations: int = 2) -> DeblurResult:
    """Remove alias copies by the recursion o <- o1 - convolve(o, A_off)/C0.

    ``iterations`` = p counts estimates: p = 1 is plain normalized decode,
    p = 2 applies one de-blur step, and so on.  The recursion runs on the
    full-size back-correlation and the final estimate is cropped to the
    object extent, ``valid_region``, as in ``decode``.  Stops early
    (``diverged`` set) if the step size grows three times in a row — a mask
    too far from delta-correlated.

    The off-peak auto-correlation A_off is transformed once for the whole
    recursion by ``lattice._convolver``, the real path of ``convolve``, so
    every step equals ``convolve(o, A_off)`` bit for bit.
    """
    if iterations < 1:
        raise ImagingError("iterations must be >= 1")
    blurred, mask = _operands(blurred, mask)
    if any(b < 2 * m - 1 for b, m in zip(blurred.shape, mask.shape)):
        raise ImagingError("blurred image smaller than encode(object, mask) output")

    c0 = _energy(mask)
    auto = correlate(mask, mask)
    a_off = np.asarray(auto.values.data, dtype=np.float64).copy()
    a_off[auto.zero_index] = 0.0

    o1 = np.asarray(convolve(blurred, mask).data, dtype=np.float64) / c0

    # the "same" part of convolve(o, A_off): centred on the full result, so
    # it starts (extent(A_off) - 1) // 2 in along each axis
    same = tuple(slice((n - 1) // 2, (n - 1) // 2 + m) for n, m in zip(a_off.shape, o1.shape))
    convolve_a_off = _convolver(a_off, o1.shape)
    o = o1
    steps: list[float] = []
    growth = 0  # steps in a row that grew
    while len(steps) < iterations - 1 and growth < 3:
        nxt = o1 - convolve_a_off(o)[same] / c0
        steps.append(float(np.abs(nxt - o).max()))
        growth = growth + 1 if len(steps) >= 2 and steps[-1] > steps[-2] else 0
        o = nxt
    estimate = Tensor(np.ascontiguousarray(o[valid_region(blurred.shape, mask.shape)]), "real")
    return DeblurResult(estimate, len(steps) + 1, growth >= 3, tuple(steps))


# ---------------------------------------------------------------------------
# two-shot pedestal acquisition


def pedestal_pair(obj, mask, kappa) -> Tensor:
    """Difference of the two non-negative-mask exposures: I1 - I2 = 2 * encode(obj, mask).

    Both H + kappa and -H + kappa must be physically non-negative, so kappa
    must reach max|H|.  The pedestal terms kappa * (box sums of O) of the two
    exposures cancel exactly, so the difference is taken as 2 * encode for
    any admissible kappa: exact for integer operands, int64 when 2 * max|C|
    fits, Python ints otherwise.
    """
    obj, mask = _operands(obj, mask)
    _admit_kappa(mask, kappa, "pedestal")
    blurred = encode(obj, mask)
    dtype = _int_dtype(2 * blurred.max_abs()) if blurred.mode == "int" else np.float64
    return Tensor(2 * blurred.data.astype(dtype, copy=False), blurred.mode)


# ---------------------------------------------------------------------------
# computational ghost imaging


class GhostResult(NamedTuple):
    bucket: Tensor
    reconstruction: Tensor  # normalized by the mask's C0
    kappa_prime: float
    kappa_prime_mode: str
    partial: bool


def ghost_image(obj, mask, kappa, kappa_prime="exact", scan=None) -> GhostResult:
    """Bucket acquisition with the non-negative mask H + kappa, then
    ``decode`` with the signed H and pedestal removal.

    The pedestal is a full-field backdrop: every scan position additionally
    collects kappa * sum(O), so the back-correlated pedestal is the constant
    kappa * sum(O) * sum(H) across the whole valid region.

    ``kappa_prime`` selects the constant subtracted after back-correlation:
    ``"exact"`` uses that analytic value (needs the object sum, i.e. known
    compact support), ``"boundary"`` averages the raw back-correlation on the
    border of the scanned region, ``lattice._ring`` (the empirical rule), or
    pass a number directly.  A zero-energy mask (C0 = 0) is refused before
    any work.  ``scan`` optionally restricts the recorded
    bucket positions to one slice per axis of the full correlation extent;
    anything outside is lost and the result is flagged partial.  The bucket
    is exact for integer operands and integer kappa (int64 when its bound
    fits, Python ints otherwise).
    """
    obj, mask = _operands(obj, mask)
    if scan is not None and len(scan) != obj.ndim:
        raise ImagingError(f"scan gives {len(scan)} slices for {obj.ndim}D data; give one per axis")
    c0 = _energy(mask)
    _admit_kappa(mask, kappa, "ghost")
    signed = encode(obj, mask)
    ksum = float(kappa) * float(np.asarray(obj.data, dtype=np.float64).sum())
    if signed.mode == "int" and kappa == int(kappa):
        backdrop = int(kappa) * int(np.asarray(obj.data, dtype=object).sum())
        data = signed.data.astype(_int_dtype(signed.max_abs() + abs(backdrop)), copy=False)
        bucket = Tensor(data + backdrop, "int")
    else:
        bucket = Tensor(signed.data.astype(np.float64) + ksum, "real")
    partial = False
    if scan is not None:
        kept = np.zeros(bucket.shape, dtype=bool)
        kept[tuple(scan)] = True
        partial = not kept.all()
        data = bucket.data.copy()
        data[~kept] = 0
        bucket = Tensor(data, bucket.mode)

    raw = np.asarray(decode(bucket, mask).data, dtype=np.float64)

    if kappa_prime == "exact":
        kp = ksum * float(np.asarray(mask.data, dtype=np.float64).sum())
    elif kappa_prime == "boundary":
        kp = float(np.take(raw, _ring(raw.shape)).mean())
    elif isinstance(kappa_prime, str):
        raise ImagingError(f"unknown kappa_prime mode {kappa_prime!r}")
    else:
        kp = float(kappa_prime)
    mode = kappa_prime if isinstance(kappa_prime, str) else "given"
    return GhostResult(bucket, Tensor((raw - kp) / c0, "real"), kp, mode, partial)


# ---------------------------------------------------------------------------
# random-array baseline


class BaselineStats(NamedTuple):
    trials: int
    seed: int
    shape: tuple[int, ...]
    R: tuple[float, float, float]  # min, mean, max
    M: tuple[float, float, float]
    R_values: tuple[float, ...]
    M_values: tuple[float, ...]


def random_baseline(
    shape: Sequence[int] = (5, 5),
    values: Sequence[int] = range(-12, 14),
    trials: int = 10_000,
    seed: int = 0,
) -> BaselineStats:
    """Quality statistics of arrays filled with non-repeated random integers.

    Each trial draws ``prod(shape)`` distinct values from ``values`` using its
    own (seed, trial)-derived generator, one trial at a time, so any subset of
    trials reproduces and the draws do not depend on how trials are scored.
    Scoring is batched and exact: ``lattice._auto_lags`` takes the
    auto-correlation lags of up to ``lattice._LAG_BLOCK`` (2^13) stacked lag
    entries at once, in int64 or Python ints from the worst-case bound and
    with the engine's per-trial sum check, and R and M come out as the same
    correctly rounded int / int as ``metrics.side_lobe_ratio`` and
    ``metrics.merit_factor`` give on each trial's ``correlate``.  Shapes whose
    lag loop exceeds ``lattice._INT_DIRECT_MACS`` products are scored one
    trial at a time through the engine.
    """
    shape = tuple(int(n) for n in shape)
    if any(n < 1 for n in shape):
        raise ImagingError(f"baseline shape extents must be >= 1, got {shape}")
    count = math.prod(shape)
    pool = np.asarray(list(values), dtype=np.int64)
    if trials < 1:
        raise ImagingError("trials must be >= 1")
    if len(pool) < count:
        raise ImagingError(f"value pool smaller than {count} cells")
    from . import metrics  # loads on first use, through the package
    rs, ms = np.empty(trials), np.empty(trials)
    draws = (trial_rng(seed, i).choice(pool, size=count, replace=False) for i in range(trials))
    done = 0
    for lags in _auto_lags(draws, shape):
        rs[done : done + len(lags)], ms[done : done + len(lags)] = metrics._lag_scores(lags)
        done += len(lags)
    return BaselineStats(
        trials,
        seed,
        shape,
        (float(rs.min()), float(rs.mean()), float(rs.max())),
        (float(ms.min()), float(ms.mean()), float(ms.max())),
        tuple(float(v) for v in rs),
        tuple(float(v) for v in ms),
    )


# ---------------------------------------------------------------------------
# multiplex (Fellgett) noise study


class NoiseStudy(NamedTuple):
    trials: int
    seed: int
    sigma: float
    element_count: int
    mse_raster: float
    mse_diffuse: float
    ratio_mean: float
    ratios: tuple[float, ...]


def multiplex_noise_study(obj, mask, sigma: float, trials: int = 500, seed: int = 0) -> NoiseStudy:
    """MSE of raster vs diffuse acquisition under equal per-measurement noise.

    The mask is normalized to unit-RMS elements (so its C0 equals its element
    count N), every measurement in either scheme gets independent N(0, sigma^2)
    noise, and each scheme's MSE is taken against its own noiseless output —
    isolating noise propagation.  decode is linear, so the diffuse error is
    decode(noise, H)/C0 and the noiseless image is never formed.  The
    expected MSE ratio is N.
    """
    obj, mask = _operands(obj, mask)
    if sigma < 0 or not math.isfinite(sigma):
        raise ImagingError("sigma must be finite and >= 0")
    if trials < 1:
        raise ImagingError("trials must be >= 1")
    hn = Tensor(np.asarray(mask.data, dtype=np.float64) / math.sqrt(_energy(mask) / mask.size), "real")
    c0 = float((hn.data * hn.data).sum())  # == element count
    blurred_shape = tuple(n + m - 1 for n, m in zip(obj.shape, mask.shape))

    ratios = np.empty(trials)
    mse_a_total = mse_b_total = 0.0
    for t in range(trials):
        rng = trial_rng(seed, t)
        mse_a = float((rng.normal(0.0, sigma, size=obj.shape) ** 2).mean())
        noise_b = Tensor(rng.normal(0.0, sigma, size=blurred_shape), "real")
        mse_b = float(((decode(noise_b, hn).data / c0) ** 2).mean())
        mse_a_total += mse_a
        mse_b_total += mse_b
        ratios[t] = math.nan if mse_b == 0.0 else mse_a / mse_b
    ratio_mean = float(np.nanmean(ratios)) if sigma > 0 else math.nan
    return NoiseStudy(trials, seed, float(sigma), mask.size, mse_a_total / trials, mse_b_total / trials,
                      ratio_mean, tuple(float(v) for v in ratios))
