"""Output checks for the benchmark, written without ``huffkit``.

Every check reads the files a CLI command wrote and recomputes what it can
from first principles: exact identities and sampled entries in Python ints
for integer outputs, a float reference with a stated tolerance for real
outputs.  A check returns ``None`` when the output is right and a one-line
reason when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

INT64_MAX = 2**63 - 1

# Relative tolerance for real outputs compared with a float64 reference.
# Both sides are a few float64 roundings away from the same exact value.
REAL_RTOL = 1e-9


# ---------------------------------------------------------------------------
# readers


def read_array(path) -> np.ndarray:
    """Text array (huffkit layout: extents line, then row-major values) or PGM.

    Integer text comes back as an object array of Python ints, real text as
    float64.
    """
    path = Path(path)
    if path.suffix == ".pgm":
        return read_pgm(path)
    with open(path) as fh:
        shape = tuple(int(v) for v in fh.readline().split())
        body = fh.read().split()
    if len(body) != math.prod(shape):
        raise ValueError(f"{path.name}: {len(body)} values for extents {shape}")
    if any(c in v for v in body for c in ".eEn"):
        return np.array([float(v) for v in body], dtype=np.float64).reshape(shape)
    return np.array([int(v) for v in body], dtype=object).reshape(shape)


def read_pgm(path) -> np.ndarray:
    """Binary 8-bit PGM in exactly the layout :func:`write_pgm` writes."""
    magic, extents, maxval, pixels = Path(path).read_bytes().split(b"\n", 3)
    if magic != b"P5" or maxval != b"255":
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    width, height = (int(v) for v in extents.split())
    arr = np.frombuffer(pixels, dtype=np.uint8, count=width * height)
    return arr.reshape(height, width).astype(object)


def write_pgm(arr: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (arr.shape[1], arr.shape[0]))
        fh.write(np.asarray(arr, dtype=np.uint8).tobytes())


def write_text(arr: np.ndarray, path) -> None:
    """Integer array in the CLI's text layout (one row per line in 2D)."""
    arr = np.asarray(arr, dtype=object)
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    with open(path, "w") as fh:
        fh.write(" ".join(str(n) for n in arr.shape) + "\n")
        for row in rows:
            fh.write(" ".join(str(int(v)) for v in row) + "\n")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


# ---------------------------------------------------------------------------
# exact correlation helpers (convention: C(s) = sum_r a(r) b(r+s), zero shift
# at index Na-1 per axis, full extent Na+Nb-1)


def correlate_exact(a, b) -> np.ndarray:
    """Full exact correlation by scattering shifted copies of b; small inputs."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    bound = min(a.size, b.size) * max(abs(int(v)) for v in a.flat) * max(abs(int(v)) for v in b.flat)
    dtype = np.int64 if bound <= INT64_MAX else object
    a, b = a.astype(dtype), b.astype(dtype)
    out = np.zeros(tuple(na + nb - 1 for na, nb in zip(a.shape, b.shape)), dtype=dtype)
    for r in np.ndindex(*a.shape):
        if a[r]:
            dest = tuple(slice(na - 1 - i, na - 1 - i + nb) for i, na, nb in zip(r, a.shape, b.shape))
            out[dest] += a[r] * b
    return out


def correlate_entry(a, b, index) -> int:
    """One entry C[index] of the full correlation, summed in Python ints."""
    a, b = np.asarray(a, dtype=object), np.asarray(b, dtype=object)
    sa, sb = [], []
    for k, na, nb in zip(index, a.shape, b.shape):
        s = k - (na - 1)
        lo, hi = max(0, -s), min(na, nb - s)
        if hi <= lo:
            return 0
        sa.append(slice(lo, hi))
        sb.append(slice(lo + s, hi + s))
    return int((a[tuple(sa)] * b[tuple(sb)]).sum())


def total(arr) -> int:
    return sum(int(v) for v in np.asarray(arr, dtype=object).flat)


def energy(arr) -> int:
    """Sum of squares in Python ints (int64 squares can overflow)."""
    return sum(int(v) * int(v) for v in np.asarray(arr, dtype=object).flat)


def merit_and_ratio(auto: np.ndarray) -> tuple[Fraction, Fraction]:
    """Exact (M, R) of a full auto-correlation; infinite values as math.inf."""
    zero = tuple((n - 1) // 2 for n in auto.shape)
    c0 = int(auto[zero])
    off = [abs(int(v)) for i, v in np.ndenumerate(auto) if i != zero]
    power = sum(v * v for v in off)
    peak = max(off, default=0)
    m = math.inf if power == 0 else Fraction(c0 * c0, power)
    r = math.inf if peak == 0 else Fraction(c0, peak)
    return m, r


def _close(got, want, rtol: float) -> bool:
    """``got`` (a JSON number or CSV text) within rtol of the exact ``want``."""
    if math.isinf(want):
        return float(got) == want
    return abs(float(got) - float(want)) <= rtol * abs(float(want))


def _sample_indices(shape, rng: np.random.Generator, count: int):
    picks = {tuple(0 for _ in shape), tuple(n - 1 for n in shape), tuple(n // 2 for n in shape)}
    while len(picks) < count:
        picks.add(tuple(int(rng.integers(0, n)) for n in shape))
    return sorted(picks)


# ---------------------------------------------------------------------------
# checks, one per kind of command output


def check_outer_report(report: dict, u) -> str | None:
    """Report of the outer product u x u, from the factorization C = c (x) c."""
    c = correlate_exact(u, u).reshape(-1)
    mid = len(c) // 2
    c0 = int(c[mid]) ** 2
    power = energy(c) ** 2 - c0 * c0
    side = max(abs(int(v)) for i, v in enumerate(c) if i != mid)
    if int(report["C0"]) != c0:
        return f"C0 {report['C0']} != factorized {c0}"
    m = math.inf if power == 0 else Fraction(c0 * c0, power)
    r = math.inf if side == 0 else Fraction(c0, int(c[mid]) * side)
    if not _close(report["M"], m, 1e-12):
        return f"M {report['M']} != factorized {float(m)}"
    if not _close(report["R"], r, 1e-12):
        return f"R {report['R']} != factorized {float(r)}"
    return None


def check_encode(blurred, obj, mask, rng: np.random.Generator) -> str | None:
    """encode = correlate(mask, obj): shape, sum identity, sampled entries."""
    want = tuple(no + nm - 1 for no, nm in zip(obj.shape, mask.shape))
    if blurred.shape != want:
        return f"extent {blurred.shape} != {want}"
    if blurred.dtype != object:
        return "encode of integer inputs is not integer"
    if total(blurred) != total(mask) * total(obj):
        return "sum of encode != sum(mask) * sum(object)"
    for idx in _sample_indices(blurred.shape, rng, 24):
        if int(blurred[idx]) != correlate_entry(mask, obj, idx):
            return f"entry {idx} differs from the exact sum"
    return None


def decode_reference(blurred, mask) -> np.ndarray:
    """Valid region of convolve(blurred, mask) / C0, through a float FFT."""
    b = np.asarray(blurred, dtype=np.float64)
    h = np.asarray(mask, dtype=np.float64)
    shape = tuple(nb + nm - 1 for nb, nm in zip(b.shape, h.shape))
    full = np.fft.irfftn(np.fft.rfftn(b, shape) * np.fft.rfftn(h, shape), shape)
    sel = tuple(slice(nm - 1, nb) for nb, nm in zip(b.shape, h.shape))
    return full[sel] / float(energy(mask))


def check_real(got: np.ndarray, want: np.ndarray, what: str, atol: float = 0.0) -> str | None:
    if got.shape != want.shape:
        return f"{what}: extent {got.shape} != {want.shape}"
    err = float(np.abs(got - want).max())
    limit = REAL_RTOL * float(np.abs(want).max()) + atol
    if not err <= limit:
        return f"{what}: max error {err:.3g} exceeds {limit:.3g}"
    return None


def check_decode(estimate, run: dict, blurred, mask) -> str | None:
    c0 = energy(mask)
    if run["results"]["C0"] != float(c0):
        return f"C0 {run['results']['C0']} != sum of squared mask {c0}"
    return check_real(estimate, decode_reference(blurred, mask), "decode")


def check_deblur(estimate, run: dict, obj, iterations: int) -> str | None:
    res = run["results"]
    if res["diverged"] or res["iterations"] != iterations:
        return f"deblur diverged or stopped early: {res}"
    # a delta-correlated mask recovers an 8-bit object to far below one grey level
    err = float(np.abs(estimate - np.asarray(obj, dtype=np.float64)).max())
    return None if err <= 1e-3 else f"deblur estimate off the object by {err:.3g}"


def check_pedestal(diff, blurred) -> str | None:
    if diff.shape != blurred.shape or np.any(diff != 2 * blurred):
        return "pedestal difference != 2 * encode"
    return None


def check_ghost(bucket, recon, run: dict, obj, mask, rng: np.random.Generator) -> str | None:
    """bucket = encode + kappa*sum(O) exactly; exact-kappa' recon = decode of encode."""
    kappa = max(0, -min(int(v) for v in mask.flat))
    if bucket.dtype != object:
        return "ghost bucket of integer inputs is not integer"
    reason = check_encode(bucket - kappa * total(obj), obj, mask, rng)
    if reason:
        return f"ghost bucket - kappa * sum(object): {reason}"
    # recon subtracts kappa' ~ kappa*sum(O)*sum(H) after a float64 conversion
    slack = 8 * np.finfo(np.float64).eps * abs(run["results"]["kappa_prime"]) / energy(mask)
    return check_real(recon, decode_reference(bucket - kappa * total(obj), mask), "ghost reconstruction", atol=slack)


def check_noise(payload: dict, mask) -> str | None:
    n = mask.size
    if payload["element_count"] != n:
        return f"element_count {payload['element_count']} != {n}"
    if abs(payload["ratio_mean"] / n - 1.0) > 0.1:
        return f"MSE ratio {payload['ratio_mean']:.4g} not within 10% of N={n}"
    if abs(payload["mse_raster"] / payload["sigma"] ** 2 - 1.0) > 0.1:
        return f"raster MSE {payload['mse_raster']:.4g} not within 10% of sigma^2"
    return None


def check_twin(twin, src, payload: dict, factor=None) -> str | None:
    """Twin flips the sign of odd rows; cross R and M follow cross_metrics.

    With ``factor`` u (src = u x u) the cross-correlation factorizes into
    x(s0) * c(s1), x = correlate(u, signs * u), c = correlate(u, u), which
    keeps the exact reference cheap for big outer products.
    """
    src = np.asarray(src, dtype=object)
    signs = np.array([(-1) ** i for i in range(src.shape[0])], dtype=object)
    if twin.shape != src.shape or np.any(twin != src * signs.reshape((-1,) + (1,) * (src.ndim - 1))):
        return "twin is not the alternating-sign copy"
    if factor is None:
        cross = correlate_exact(src, twin)
        mags = sorted({abs(int(v)) for v in cross.flat})
        power = energy(cross)
    else:
        u = np.asarray(factor, dtype=object)
        x = correlate_exact(u, signs * u).reshape(-1)
        c = correlate_exact(u, u).reshape(-1)
        mags = sorted({abs(int(p)) * abs(int(q)) for p in x for q in c})
        power = energy(x) * energy(c)
    peak = mags[-1]
    r = math.inf if len(mags) == 1 else Fraction(peak, mags[-2])
    power -= peak * peak
    m = math.inf if power <= 0 else Fraction(peak * peak, power)
    if not _close(payload["cross_R"], r, 1e-9) or not _close(payload["cross_M"], m, 1e-9):
        return f"cross metrics {payload} != exact R={float(r):.12g} M={float(m):.12g}"
    return None


def check_discretize(result, payload: dict, source: np.ndarray, bits: int) -> str | None:
    """Tweaked M equals the output's exact M and is at least plain rounding's."""
    if result.dtype != object or result.shape != source.shape:
        return "discretize output is not an integer array of the input extent"
    m_out, _ = merit_and_ratio(correlate_exact(result, result))
    if not _close(payload["M"], m_out, 1e-12):
        return f"reported M {payload['M']} != exact M {float(m_out)} of the output"
    scale = (2**bits - 1) / float(np.abs(source).max())
    plain = np.rint(source * scale).astype(np.int64).astype(object)
    m_plain, _ = merit_and_ratio(correlate_exact(plain, plain))
    if m_out < m_plain:
        return f"tweaked M {float(m_out)} < plain rounding M {float(m_plain)}"
    return None


def check_table2(path, reference) -> str | None:
    with open(path) as fh:
        got = sorted((int(r["f"]), int(r["g"]), int(r["h"])) for r in csv.DictReader(fh))
    with open(reference) as fh:
        want = sorted((int(r["f"]), int(r["g"]), int(r["h"])) for r in csv.DictReader(fh))
    return None if got == want else f"table 2 f,g,h: {len(got)} rows, {len(want)} expected"


def mix64(seed: int, index: int) -> int:
    """splitmix64 of seed + index * golden gamma: the documented per-trial seed."""
    mask = (1 << 64) - 1
    z = (seed + index * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def check_baseline(payload: dict, csv_path, seed: int, shape, lo: int, hi: int,
                   rng: np.random.Generator) -> str | None:
    """Summary against the per-trial dump; sampled trials redrawn and rescored."""
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != payload["trials"]:
        return f"{len(rows)} dumped trials, {payload['trials']} reported"
    for key in ("R", "M"):
        vals = [float(r[key]) for r in rows]
        summary = (min(vals), sum(vals) / len(vals), max(vals))
        for name, got, want in zip(("min", "mean", "max"), summary, (payload[key][k] for k in ("min", "mean", "max"))):
            if abs(got - want) > 1e-8 * abs(want):
                return f"{key} {name} {want} disagrees with the dump ({got})"
    pool = np.arange(lo, hi, dtype=np.int64)
    count = math.prod(shape)
    for t in sorted({0, len(rows) - 1, *(int(v) for v in rng.integers(0, len(rows), 8))}):
        arr = np.random.default_rng(mix64(seed, t)).choice(pool, size=count, replace=False)
        m, r = merit_and_ratio(correlate_exact(arr.reshape(shape), arr.reshape(shape)))
        if not _close(rows[t]["M"], m, 1e-8) or not _close(rows[t]["R"], r, 1e-8):
            return f"trial {t}: dumped R,M {rows[t]['R']},{rows[t]['M']} != exact"
    return None
