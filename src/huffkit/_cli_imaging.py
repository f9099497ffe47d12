"""The CLI's imaging commands: encode, decode, deblur, pedestal, ghost, watermark, baseline and noise-study."""

import json
import sys
from pathlib import Path

import numpy as np

from . import imaging
from ._cli import (DivergenceError, UsageError, _finish, _parse_finite, _parse_ints, _read_tensor,
                   at_least, command, group, option)
from .lattice import Tensor


def _parse_kappa(text: str, mask: Tensor, scheme: str) -> float:
    """'auto' resolves to the least admissible pedestal of ``scheme`` for the mask."""
    if text == "auto":
        return imaging._least_kappa(mask, scheme)
    return _parse_finite(text, "--kappa must be a finite number or 'auto'")


@command()
@option("object_path", metavar="OBJECT")
@option("mask_path", metavar="MASK")
@option("--plot", action="store_true", help="Also render the blurred image as PGM.")
def encode(object_path, mask_path, plot):
    """Blur an object with a diffuse mask (full cross-correlation)."""
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    blurred = imaging.encode(obj, mask)
    files = _finish(f"encode_{Path(object_path).stem}", {"object": object_path, "mask": mask_path},
                    {".txt": blurred, ".pgm": blurred if plot else None},
                    results={"shape": list(blurred.shape)})
    print(f"blurred {blurred.shape} -> {files[0]}")


@command()
@option("blurred_path", metavar="BLURRED")
@option("mask_path", metavar="MASK")
@option("--plot", action="store_true", help="Also render the estimate as PGM.")
def decode(blurred_path, mask_path, plot):
    """First-order decode: back-correlate, crop, normalize by C0."""
    blurred, mask = _read_tensor(blurred_path), _read_tensor(mask_path)
    c0 = imaging._energy(mask, "mask")
    estimate = Tensor(np.asarray(imaging.decode(blurred, mask).data, dtype=np.float64) / c0, "real")
    files = _finish(f"decode_{Path(blurred_path).stem}", {"blurred": blurred_path, "mask": mask_path},
                    {".txt": estimate, ".pgm": estimate if plot else None},
                    results={"shape": list(estimate.shape), "C0": c0})
    print(f"estimate {estimate.shape} -> {files[0]}")


@command()
@option("blurred_path", metavar="BLURRED")
@option("mask_path", metavar="MASK")
@option("--iterations", "-p", type=at_least(1), default=2,
        help="Estimates computed; 2 = one de-blur step after the first decode.")
@option("--plot", action="store_true", help="Also render the estimate as PGM.")
def deblur(blurred_path, mask_path, iterations, plot):
    """Iteratively remove alias copies from a blurred image."""
    blurred, mask = _read_tensor(blurred_path), _read_tensor(mask_path)
    result = imaging.deblur(blurred, mask, iterations=iterations)
    files = _finish(f"deblur_{Path(blurred_path).stem}",
                    {"blurred": blurred_path, "mask": mask_path, "iterations": iterations},
                    {".txt": result.estimate, ".pgm": result.estimate if plot else None},
                    results={"iterations": result.iterations, "diverged": result.diverged,
                             "step_sizes": list(result.step_sizes)})
    if result.diverged:
        raise DivergenceError(f"step size grew 3x in a row after {result.iterations} iterations; "
                              "is the mask delta-correlated?")
    print(f"estimate {result.estimate.shape} -> {files[0]}")


@command()
@option("object_path", metavar="OBJECT")
@option("mask_path", metavar="MASK")
@option("--kappa", default="auto",
        help="Pedestal making both +mask and -mask exposures non-negative; 'auto' = max|mask|.")
def pedestal(object_path, mask_path, kappa):
    """Two-shot acquisition: I1 - I2 with masks (+H + k) and (-H + k)."""
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    k = _parse_kappa(kappa, mask, "pedestal")
    diff = imaging.pedestal_pair(obj, mask, k)
    files = _finish(f"pedestal_{Path(object_path).stem}",
                    {"object": object_path, "mask": mask_path, "kappa": k}, {".txt": diff},
                    results={"shape": list(diff.shape)})
    print(f"difference image {diff.shape} -> {files[0]}")


def _parse_scan(text: str) -> list[slice]:
    out = []
    for part in text.split(","):
        try:  # unpacking other than two bounds is a ValueError too
            lo, hi = (int(v) if v else None for v in part.split(":"))
        except ValueError:
            raise UsageError(f"--scan needs integer LO:HI per axis, got {part!r}") from None
        out.append(slice(lo, hi))
    return out


@command()
@option("object_path", metavar="OBJECT")
@option("mask_path", metavar="MASK")
@option("--kappa", default="auto", help="Pedestal making mask + kappa non-negative; 'auto' = -min(mask).")
@option("--kappa-prime", default="exact", help="'exact' (needs known object sum), 'boundary', or a number.")
@option("--scan", help="Recorded bucket positions as LO:HI[,LO:HI...]; rest is lost.")
@option("--plot", action="store_true", help="Also render the reconstruction as PGM.")
def ghost(object_path, mask_path, kappa, kappa_prime, scan, plot):
    """Bucket-signal ghost imaging with a scanned non-negative mask."""
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    k = _parse_kappa(kappa, mask, "ghost")
    if kappa_prime not in ("exact", "boundary"):
        kappa_prime = _parse_finite(kappa_prime, "--kappa-prime must be 'exact', 'boundary', or a finite number")
    scan_slices = _parse_scan(scan) if scan else None
    result = imaging.ghost_image(obj, mask, k, kappa_prime=kappa_prime, scan=scan_slices)
    files = _finish(f"ghost_{Path(object_path).stem}",
                    {"object": object_path, "mask": mask_path, "kappa": k, "kappa_prime": kappa_prime, "scan": scan},
                    {".bucket.txt": result.bucket, ".txt": result.reconstruction,
                     ".pgm": result.reconstruction if plot else None},
                    results={"kappa_prime": result.kappa_prime, "kappa_prime_mode": result.kappa_prime_mode,
                             "partial": result.partial})
    if result.partial:
        print("warning: scan does not cover every bucket position; reconstruction flagged partial", file=sys.stderr)
    print(f"reconstruction {result.reconstruction.shape} -> {files[1]}")


@group
def watermark() -> None:
    """Embed a delta-correlated mark in an image, or locate one."""


@command(parent=watermark)
@option("host_path", metavar="HOST")
@option("mark_path", metavar="MARK")
@option("--offset", required=True, help="Top-left corner of the mark, e.g. 16,16.")
@option("--plot", action="store_true", help="Also render the marked image as PGM.")
def embed(host_path, mark_path, offset, plot):
    """Add the mark into the host at a fixed offset."""
    host, mark = _read_tensor(host_path), _read_tensor(mark_path)
    off = _parse_ints(offset, "--offset")
    marked = imaging.watermark_embed(host, mark, off)
    files = _finish(f"marked_{Path(host_path).stem}", {"host": host_path, "mark": mark_path, "offset": list(off)},
                    {".txt": marked, ".pgm": marked if plot else None})
    print(f"marked image -> {files[0]}")


@command(parent=watermark)
@option("image_path", metavar="IMAGE")
@option("mark_path", metavar="MARK")
def locate(image_path, mark_path):
    """Search an image for the mark by a single cross-correlation."""
    image, mark = _read_tensor(image_path), _read_tensor(mark_path)
    payload = imaging.watermark_locate(image, mark)._asdict()
    _finish(f"locate_{Path(image_path).stem}", {"image": image_path, "mark": mark_path},
            {".locate.json": payload}, results=payload)
    print(json.dumps(payload, sort_keys=True))


@command()
@option("--shape", default="5,5", help="Array extents, comma-separated.")
@option("--values", default="-12:14",
        help="Half-open integer pool LO:HI the entries are drawn from without replacement.")
@option("--trials", type=at_least(1), default=10_000)
@option("--seed", type=int, default=0)
@option("--dump-values", action="store_true", help="Also write per-trial R and M as CSV.")
def baseline(shape, values, trials, seed, dump_values):
    """Monte-Carlo R and M statistics of random non-repeating arrays."""
    shp = _parse_ints(shape, "--shape")
    try:
        lo, hi = (int(v) for v in values.split(":"))
    except ValueError:
        raise UsageError(f"--values must be LO:HI integers, got {values!r}")
    stats = imaging.random_baseline(shape=shp, values=range(lo, hi),
                                    trials=trials, seed=seed)
    payload = {
        "trials": stats.trials,
        "shape": list(stats.shape),
        "R": {"min": stats.R[0], "mean": stats.R[1], "max": stats.R[2]},
        "M": {"min": stats.M[0], "mean": stats.M[1], "max": stats.M[2]},
    }
    csv = None
    if dump_values:
        csv = "trial,R,M\n" + "".join(
            "%d,%.9g,%.9g\n" % (i, r_v, m_v) for i, (r_v, m_v) in enumerate(zip(stats.R_values, stats.M_values))
        )
    _finish(f"baseline_{'x'.join(str(v) for v in shp)}_{trials}",
            {"shape": list(shp), "values": values, "trials": trials},
            {".json": payload, ".csv": csv}, seed=seed, results=payload)
    print(json.dumps(payload, sort_keys=True))


@command("noise-study")
@option("object_path", metavar="OBJECT")
@option("mask_path", metavar="MASK")
@option("--sigma", type=float, default=1.0)
@option("--trials", type=at_least(1), default=500)
@option("--seed", type=int, default=0)
def noise_study(object_path, mask_path, sigma, trials, seed):
    """Raster vs diffuse acquisition MSE under equal per-measurement noise."""
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    study = imaging.multiplex_noise_study(obj, mask, sigma, trials=trials, seed=seed)
    payload = {key: value for key, value in study._asdict().items() if key not in ("seed", "ratios")}
    _finish(f"noise_{Path(object_path).stem}",
            {"object": object_path, "mask": mask_path, "sigma": sigma, "trials": trials},
            {".json": payload}, seed=seed, results=payload)
    print(json.dumps(payload, sort_keys=True))
