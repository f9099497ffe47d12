"""Command-line surface for construction, analysis, and the imaging demos.

Every command writes its artifacts into ``--out`` (default: ``$HUFFKIT_OUT``
or the working directory) together with a ``<name>.run.json`` provenance
record holding the resolved arguments, the library versions, and the seed —
never a timestamp, so re-running with identical flags reproduces every CSV
and JSON byte for byte (PGM renders may differ by a rounding ulp in real
mode).  The files of one run are written all or nothing: if any write fails,
the files already written by that run are removed and the command exits with
the failure's code.  Text arrays must hold finite values: ``nan``, ``inf`` or
an overflowing literal such as ``1e400`` in an input, or a non-finite result
about to be written, is a domain error (exit 3).

Exit codes: 0 success, 1 usage, 2 I/O, 3 domain (constraint violation),
4 numerical (divergence, or a correlation that fails its exactness check).
"""

from __future__ import annotations

import json
import math
import os
import platform
import re
import sys
from pathlib import Path

import click
import numpy as np

from . import __version__
from .lattice import LatticeError, Tensor, _auto_peak, correlate, read_pgm, read_text, write_pgm, write_text
from .metrics import classify, cross_metrics, span_bits, spectral_flatness
from .project import _direction_components, as_direction, project, twin as twin_of

_EXIT_USAGE = 1
_EXIT_IO = 2
_EXIT_DOMAIN = 3
_EXIT_NUMERICAL = 4


class DivergenceError(RuntimeError):
    """An iteration diverged; maps to exit code 4."""


class _Group(click.Group):
    """Group whose main() maps exceptions onto the fixed exit-code taxonomy."""

    def main(self, *args, **kwargs):  # noqa: D102 - click override
        kwargs.setdefault("standalone_mode", False)
        try:
            return super().main(*args, **kwargs)  # click returns --help's exit code itself
        except click.Abort:
            click.echo("aborted", err=True)
            sys.exit(_EXIT_USAGE)
        except click.ClickException as exc:  # includes UsageError
            click.echo(f"usage error: {exc.format_message()}", err=True)
            sys.exit(_EXIT_USAGE)
        except (DivergenceError, ArithmeticError) as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(_EXIT_NUMERICAL)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(_EXIT_IO)
        except (ValueError, KeyError) as exc:  # all module domain errors
            click.echo(f"domain error: {exc}", err=True)
            sys.exit(_EXIT_DOMAIN)


@click.group(cls=_Group)
def main() -> None:
    """Delta-correlated arrays: construct, score, project, image."""


# ---------------------------------------------------------------------------
# shared plumbing


def _read_tensor(path: str) -> Tensor:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    return read_pgm(p) if p.suffix.lower() == ".pgm" else read_text(p)


def _plot_pgm(t: Tensor, path: Path) -> None:
    """Grey-scale render; 1D data becomes a one-pixel-high strip."""
    arr = np.asarray(t.data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    write_pgm(Tensor(arr, "real"), path)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _artefact_options(command):
    """The ``--name``/``--out`` pair every artefact-writing command takes."""
    command = click.option("--out", help="Output directory (default $HUFFKIT_OUT or cwd).")(command)
    return click.option("--name", help="Output file stem.")(command)


def _finish(name: str | None, out: str | None, stem: str, arguments: dict, artefacts: dict,
            seed: int | None = None, results: dict | None = None) -> list[str]:
    """Write a run's artefacts, then its ``<stem>.run.json``; all or nothing.

    ``artefacts`` maps file suffix to payload in writing order: a Tensor is
    written as text, or rendered when the suffix ends in ``.pgm``; a dict is
    written as JSON, a str as is, and None is skipped.  ``name`` (the
    ``--name`` option) overrides the default ``stem``.  If any write fails,
    every file this call began writing is removed and the error re-raised.
    Returns the artefact file names in writing order.

    The record's ``versions`` come from ``huffkit.__version__``,
    ``np.__version__``, ``platform.python_version()`` and, for click and
    scipy (which scipy is never imported to learn), the ``Version:`` header
    of their installed metadata, read by ``_version``.
    """
    stem = name or stem
    base = Path(out) if out else Path(os.environ.get("HUFFKIT_OUT", "."))
    base.mkdir(parents=True, exist_ok=True)
    payloads = {stem + suffix: payload for suffix, payload in artefacts.items() if payload is not None}
    ctx, words = click.get_current_context(), []
    while ctx.parent is not None:  # the root's info_name is the program name
        words.insert(0, ctx.info_name)
        ctx = ctx.parent
    record = {
        "command": " ".join(words),
        "arguments": arguments,
        "files": sorted(payloads),
        "seed": seed,
        "package": {"name": "huffkit", "version": __version__},
        "versions": {
            "click": _version("click"),
            "numpy": np.__version__,
            "python": platform.python_version(),
            "scipy": _version("scipy"),
        },
    }
    if results is not None:
        record["results"] = results
    payloads[f"{stem}.run.json"] = record
    started = []
    try:
        for fname, payload in payloads.items():
            path = base / fname
            started.append(path)
            if isinstance(payload, Tensor):
                (_plot_pgm if fname.endswith(".pgm") else write_text)(payload, path)
            else:
                path.write_text(_json_text(payload) if isinstance(payload, dict) else payload)
    except BaseException:
        for path in started:
            path.unlink(missing_ok=True)
        raise
    return list(payloads)[:-1]


def _version(name: str) -> str | None:
    """The installed version of distribution ``name``, as ``importlib.metadata.version`` gives it.

    Searches ``sys.path`` in order, as ``importlib.metadata`` does, for the
    first ``<name>-*.dist-info`` or ``<name>-*.egg-info`` entry (names
    compared case-insensitively, with runs of ``-``, ``_`` and ``.`` alike).
    Its metadata is the first non-empty one of ``METADATA``, ``PKG-INFO`` and
    the entry itself (a plain ``.egg-info`` file); the result is that
    metadata's first ``Version:`` header, or None if it has none.  Importing
    ``importlib.metadata`` instead would load the ``email`` package and parse
    each whole file, about 35 ms a command.  Zip archives and ``.egg``
    directories on ``sys.path`` are not searched.  Raises ModuleNotFoundError
    when no entry matches.
    """
    want = _dist_key(name)
    for entry in sys.path:
        root = entry or "."
        try:
            children = os.listdir(root)
        except OSError:  # a missing directory or a zip archive
            continue
        for child in children:
            low = child.lower()
            if low.endswith((".dist-info", ".egg-info")) and (
                _dist_key(low.rpartition(".")[0].partition("-")[0]) == want
            ):
                return _metadata_version(os.path.join(root, child))
    raise ModuleNotFoundError(f"No package metadata was found for {name}", name=name)


def _dist_key(name: str) -> str:
    return re.sub(r"[-_.]+", "_", name).lower()


_HEADER = re.compile(r"([!-9;-~]+):[ \t]*(.*)")


def _metadata_version(info: str) -> str | None:
    for path in (os.path.join(info, "METADATA"), os.path.join(info, "PKG-INFO"), info):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError:  # absent, or a directory or file where the other was looked for
            continue
        if text:
            break
    else:
        return None
    for line in text.split("\n"):
        if line[:1] in (" ", "\t"):  # the folded tail of the previous header
            continue
        header = _HEADER.fullmatch(line)
        if header is None:  # a blank or non-header line ends the headers
            return None
        if header[1].lower() == "version":
            return header[2]
    return None


def _energetic(tensor: Tensor) -> Tensor:
    """``tensor``, refused as a domain error when its energy C0 = sum(a^2) is 0."""
    if _auto_peak(tensor) == 0:
        raise LatticeError("zero-energy input: C0 = 0 leaves R, M and S undefined")
    return tensor


def _report_payload(report) -> dict:
    return json.loads(report.to_json())


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_finite(text: str, rule: str) -> float:
    """``text`` as a finite float; anything else is a usage error quoting ``rule``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the non-finite values
    if not math.isfinite(value):
        raise click.UsageError(f"{rule}, got {text!r}")
    return value


def _parse_kappa(text: str, mask: Tensor, scheme: str) -> float:
    """'auto' resolves to the least admissible pedestal of ``scheme`` for the mask."""
    from .imaging import _least_kappa
    if text == "auto":
        return _least_kappa(mask, scheme)
    return _parse_finite(text, "--kappa must be a finite number or 'auto'")


_FAMILY_ALIASES = {
    "fibonacci": "fibonacci_binet",
    "h5": "h5_family",
    "catalog": "catalog",
    "even": "catalog",
    "diamond5": "diamond5",
    "diamond7": "diamond7",
    "outer": "outer_product",
}


# ---------------------------------------------------------------------------
# construction and analysis


@main.command()
@click.option("--family", required=True, type=click.Choice(sorted(_FAMILY_ALIASES)))
@click.option("--length", "-N", "--N", "length", type=int, help="Sequence length (4n+3 family).")
@click.option("--b", type=int, default=2, show_default=True, help="Even base of the recurrence family.")
@click.option("--n", type=int, help="Index within the length-5 family.")
@click.option("--variant", type=click.Choice(["even", "odd"]), default="even", show_default=True)
@click.option("--key", help="Catalog entry name (see `generate --family catalog --key help`).")
@click.option("--alphabet", help="Comma-separated template letters (6 for 5x5, 8 for 7x7).")
@click.option("--e", type=int, help="7x7 inner-diamond letter.")
@click.option("--f", type=int, help="7x7 free letter; with --e 3 and no --g/--h, uses the closed form.")
@click.option("--g", type=int)
@click.option("--h", "h_letter", type=int)
@click.option("--factor", "factors", multiple=True, help="Outer-product factor, e.g. catalog:H9 or fibonacci_binet:15:2.")
@_artefact_options
def generate(family, length, b, n, variant, key, alphabet, e, f, g, h_letter, factors, name, out):
    """Construct an array from a named family and score it."""
    from .construct import HuffmanSpec, build, diamond7_closed_form
    family = _FAMILY_ALIASES[family]
    if family == "fibonacci_binet":
        if length is None:
            raise click.UsageError("--length is required for the fibonacci family")
        spec = HuffmanSpec(family, length=length, b=b)
    elif family == "h5_family":
        if n is None:
            raise click.UsageError("--n is required for the h5 family")
        spec = HuffmanSpec(family, n=n, variant=variant)
    elif family == "catalog":
        if key is None:
            raise click.UsageError("--key is required for catalog entries")
        spec = HuffmanSpec(family, key=key)
    elif family in ("diamond5", "diamond7"):
        if alphabet is not None:
            letters = _parse_ints(alphabet, "--alphabet")
        elif family == "diamond7" and e is not None and f is not None:
            if g is None or h_letter is None:
                if e != 3:
                    raise click.UsageError("--g/--h can only be omitted for --e 3 (closed form)")
                g, h_letter = diamond7_closed_form(f)
            letters = (0, 0, 0, 1, e, f, g, h_letter)
        else:
            raise click.UsageError(f"--alphabet (or --e/--f for diamond7) is required for {family}")
        spec = HuffmanSpec(family, alphabet=letters)
    else:  # outer_product; a comma inside one --factor also separates factors
        if not factors:
            raise click.UsageError("at least one --factor is required for outer products")
        try:
            fields = [HuffmanSpec._compact_fields(token) for factor in factors for token in factor.split(",")]
        except ValueError as exc:
            raise click.UsageError(f"--factor: {exc}") from None
        spec = HuffmanSpec(family, factors=tuple(HuffmanSpec(**kw) for kw in fields))
    tensor = build(spec)
    report = classify(tensor)
    stem = "generate_" + spec.to_text().replace("family=", "").replace(" ", "_").replace("=", "-").replace(",", "_").replace(":", "-")
    _finish(name, out, stem, {"spec": spec.to_text()},
            {".txt": tensor, ".report.json": _report_payload(report)},
            results={"shape": list(tensor.shape)})
    click.echo(report.to_json())


@main.command()
@click.argument("input_path", metavar="INPUT")
@click.option("--oversample", type=click.IntRange(min=1), default=1, show_default=True,
              help="Zero-padding factor for the spectral-flatness DFT.")
@click.option("--plot", is_flag=True, help="Also render |auto-correlation| as PGM.")
@_artefact_options
def analyze(input_path, oversample, plot, name, out):
    """Score an array: merit factor, side-lobe ratio, flatness, class."""
    tensor = _energetic(_read_tensor(input_path))
    report = classify(tensor)
    payload = _report_payload(report)
    if oversample > 1:
        payload["S"] = spectral_flatness(tensor, oversample=oversample)
        payload["S_oversample"] = oversample
    mags = None
    if plot:
        corr = correlate(tensor, tensor)
        mags = Tensor(np.abs(np.asarray(corr.values.data, dtype=np.float64)), "real")
    _finish(name, out, f"analyze_{Path(input_path).stem}",
            {"input": input_path, "oversample": oversample},
            {".report.json": payload, ".corr.pgm": mags})
    click.echo(json.dumps(payload, sort_keys=True))


@main.command(name="project")
@click.argument("input_path", metavar="INPUT")
@click.option("--dir", "direction", required=True, help="Projection direction p:q (2D) or p:q:r (3D).")
@_artefact_options
def project_cmd(input_path, direction, name, out):
    """Project an array along a rational direction and score the result."""
    try:
        components = _direction_components(direction)
    except ValueError as exc:
        raise click.UsageError(f"--dir: {exc}") from None
    tensor = _read_tensor(input_path)
    d = as_direction(components, ndim=tensor.ndim)
    projected = project(tensor, d)
    report = classify(projected)
    _finish(name, out, f"project_{Path(input_path).stem}_{str(d).replace(':', '_').replace('-', 'm')}",
            {"input": input_path, "dir": str(d)},
            {".txt": projected, ".report.json": _report_payload(report)},
            results={"shape": list(projected.shape)})
    click.echo(report.to_json())


@main.command(name="twin")
@click.argument("input_path", metavar="INPUT")
@_artefact_options
def twin_cmd(input_path, name, out):
    """Emit the parity-flipped twin and its cross-correlation metrics."""
    tensor = _energetic(_read_tensor(input_path))
    tw = twin_of(tensor)
    cross_r, cross_m = cross_metrics(correlate(tensor, tw))
    report = classify(tw)
    payload = _report_payload(report)
    results = {"cross_R": cross_r, "cross_M": cross_m}
    payload.update(results)
    _finish(name, out, f"twin_{Path(input_path).stem}", {"input": input_path},
            {".txt": tw, ".report.json": payload}, results=results)
    click.echo(json.dumps(results, sort_keys=True))


# ---------------------------------------------------------------------------
# continuum


def _parse_coeff(text: str) -> tuple[tuple[int, ...], float]:
    key, eq, value = text.partition("=")
    num, slash, den = value.partition("/")
    try:
        if eq:
            return tuple(int(v) for v in key.split(",")), float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        pass
    raise click.UsageError(f"--coeff needs EXPONENTS=VALUE, e.g. 3=1/3 or 1,2=0.5, got {text!r}")


@main.command()
@click.option("--spec", "spec_path", help="ProbeSpec JSON file (alternative to flags).")
@click.option("--coeff", "coeffs", multiple=True,
              help="Phase monomial EXPONENTS=VALUE, e.g. 3=1/3 or 1,2=0.5; repeatable.")
@click.option("--samples", help="Grid points per axis, e.g. 257 or 64,64.")
@click.option("--step", type=float, default=1.0, show_default=True)
@click.option("--bandwidth", type=float, default=1.0, show_default=True)
@click.option("--kappa", type=float, default=0.0, show_default=True)
@click.option("--plot", is_flag=True, help="Also render the probe as PGM.")
@_artefact_options
def probe(spec_path, coeffs, samples, step, bandwidth, kappa, plot, name, out):
    """Synthesize a flat-spectrum probe from an odd polynomial phase."""
    from .continuum import ProbeSpec, synthesize_probe, verify_delta_correlation
    if spec_path:
        spec = ProbeSpec.from_json(Path(spec_path).read_text())
    else:
        if not coeffs or not samples:
            raise click.UsageError("--coeff and --samples are required without --spec")
        spec = ProbeSpec(
            coefficients=dict(_parse_coeff(c) for c in coeffs),
            samples=_parse_ints(samples, "--samples"),
            step=step,
            bandwidth=bandwidth,
            kappa=kappa,
        )
    tensor = synthesize_probe(spec)
    delta = verify_delta_correlation(tensor)
    results = {"periodic_rel": delta.periodic_rel, "aperiodic_rel": delta.aperiodic_rel}
    _finish(name, out, "probe", {"spec": json.loads(spec.to_json())},
            {".txt": tensor, ".spec.json": spec.to_json() + "\n", ".delta.json": dict(results, peak=delta.peak),
             ".pgm": tensor if plot else None},
            results=results)
    click.echo(json.dumps(results, sort_keys=True))


@main.command()
@click.argument("input_path", metavar="[INPUT]", required=False)
@click.option("--airy", "airy_window", help="Sample Ai(x) instead of reading INPUT: LO:HI:STEP, e.g. -40:8:0.5.")
@click.option("--bits", type=click.IntRange(min=3), default=7, show_default=True)
@click.option("--objective", type=click.Choice(["M", "R"]), default="M", show_default=True)
@click.option("--max-iters", type=click.IntRange(min=0), default=500, show_default=True)
@_artefact_options
def discretize(input_path, airy_window, bits, objective, max_iters, name, out):
    """Round a real sequence to integers and greedily tweak it delta-ward."""
    from .continuum import airy, discretize_and_tweak
    if (input_path is None) == (airy_window is None):
        raise click.UsageError("give exactly one of INPUT or --airy")
    if airy_window:
        try:
            lo, hi, step = (float(v) for v in airy_window.split(":"))
        except ValueError:
            raise click.UsageError(f"--airy must be LO:HI:STEP, got {airy_window!r}")
        if not (-math.inf < lo < hi < math.inf and 0 < step < math.inf):  # nan fails every comparison
            raise click.UsageError(f"--airy needs finite LO < HI and STEP > 0, got {airy_window!r}")
        tensor = airy(np.arange(lo, hi + step / 2, step))
        source = {"airy": airy_window}
    else:
        tensor = _read_tensor(input_path)
        source = {"input": input_path}
    result = discretize_and_tweak(tensor, bits, objective=objective, max_iters=max_iters)
    if result.undefined:
        raise click.UsageError("input has no nonzero samples; nothing to tweak")

    payload = _report_payload(result.report)
    payload["iterations"] = result.iterations
    results = {"iterations": result.iterations, "M": payload["M"], "R": payload["R"]}
    _finish(name, out, "discretize", dict(source, bits=bits, objective=objective, max_iters=max_iters),
            {".txt": result.tensor, ".report.json": payload}, results=results)
    click.echo(json.dumps(results, sort_keys=True))


# ---------------------------------------------------------------------------
# imaging


@main.command()
@click.argument("object_path", metavar="OBJECT")
@click.argument("mask_path", metavar="MASK")
@click.option("--plot", is_flag=True, help="Also render the blurred image as PGM.")
@_artefact_options
def encode(object_path, mask_path, plot, name, out):
    """Blur an object with a diffuse mask (full cross-correlation)."""
    from . import imaging
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    blurred = imaging.encode(obj, mask)
    files = _finish(name, out, f"encode_{Path(object_path).stem}",
                    {"object": object_path, "mask": mask_path},
                    {".txt": blurred, ".pgm": blurred if plot else None},
                    results={"shape": list(blurred.shape)})
    click.echo(f"blurred {blurred.shape} -> {files[0]}")


@main.command()
@click.argument("blurred_path", metavar="BLURRED")
@click.argument("mask_path", metavar="MASK")
@click.option("--plot", is_flag=True, help="Also render the estimate as PGM.")
@_artefact_options
def decode(blurred_path, mask_path, plot, name, out):
    """First-order decode: back-correlate, crop, normalize by C0."""
    from . import imaging
    blurred, mask = _read_tensor(blurred_path), _read_tensor(mask_path)
    c0 = imaging._energy(mask, "mask")
    estimate = Tensor(np.asarray(imaging.decode(blurred, mask).data, dtype=np.float64) / c0, "real")
    files = _finish(name, out, f"decode_{Path(blurred_path).stem}",
                    {"blurred": blurred_path, "mask": mask_path},
                    {".txt": estimate, ".pgm": estimate if plot else None},
                    results={"shape": list(estimate.shape), "C0": c0})
    click.echo(f"estimate {estimate.shape} -> {files[0]}")


@main.command()
@click.argument("blurred_path", metavar="BLURRED")
@click.argument("mask_path", metavar="MASK")
@click.option("--iterations", "-p", type=click.IntRange(min=1), default=2, show_default=True,
              help="Estimates computed; 2 = one de-blur step after the first decode.")
@click.option("--plot", is_flag=True, help="Also render the estimate as PGM.")
@_artefact_options
def deblur(blurred_path, mask_path, iterations, plot, name, out):
    """Iteratively remove alias copies from a blurred image."""
    from . import imaging
    blurred, mask = _read_tensor(blurred_path), _read_tensor(mask_path)
    result = imaging.deblur(blurred, mask, iterations=iterations)
    files = _finish(name, out, f"deblur_{Path(blurred_path).stem}",
                    {"blurred": blurred_path, "mask": mask_path, "iterations": iterations},
                    {".txt": result.estimate, ".pgm": result.estimate if plot else None},
                    results={"iterations": result.iterations, "diverged": result.diverged,
                             "step_sizes": list(result.step_sizes)})
    if result.diverged:
        raise DivergenceError(f"step size grew 3x in a row after {result.iterations} iterations; "
                              "is the mask delta-correlated?")
    click.echo(f"estimate {result.estimate.shape} -> {files[0]}")


@main.command()
@click.argument("object_path", metavar="OBJECT")
@click.argument("mask_path", metavar="MASK")
@click.option("--kappa", default="auto", show_default=True,
              help="Pedestal making both +mask and -mask exposures non-negative; 'auto' = max|mask|.")
@_artefact_options
def pedestal(object_path, mask_path, kappa, name, out):
    """Two-shot acquisition: I1 - I2 with masks (+H + k) and (-H + k)."""
    from . import imaging
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    k = _parse_kappa(kappa, mask, "pedestal")
    diff = imaging.pedestal_pair(obj, mask, k)
    files = _finish(name, out, f"pedestal_{Path(object_path).stem}",
                    {"object": object_path, "mask": mask_path, "kappa": k}, {".txt": diff},
                    results={"shape": list(diff.shape)})
    click.echo(f"difference image {diff.shape} -> {files[0]}")


def _parse_scan(text: str) -> list[slice]:
    out = []
    for part in text.split(","):
        try:  # unpacking other than two bounds is a ValueError too
            lo, hi = (int(v) if v else None for v in part.split(":"))
        except ValueError:
            raise click.UsageError(f"--scan needs integer LO:HI per axis, got {part!r}") from None
        out.append(slice(lo, hi))
    return out


@main.command()
@click.argument("object_path", metavar="OBJECT")
@click.argument("mask_path", metavar="MASK")
@click.option("--kappa", default="auto", show_default=True,
              help="Pedestal making mask + kappa non-negative; 'auto' = -min(mask).")
@click.option("--kappa-prime", default="exact", show_default=True,
              help="'exact' (needs known object sum), 'boundary', or a number.")
@click.option("--scan", help="Recorded bucket positions as LO:HI[,LO:HI...]; rest is lost.")
@click.option("--plot", is_flag=True, help="Also render the reconstruction as PGM.")
@_artefact_options
def ghost(object_path, mask_path, kappa, kappa_prime, scan, plot, name, out):
    """Bucket-signal ghost imaging with a scanned non-negative mask."""
    from . import imaging
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    k = _parse_kappa(kappa, mask, "ghost")
    if kappa_prime not in ("exact", "boundary"):
        kappa_prime = _parse_finite(kappa_prime, "--kappa-prime must be 'exact', 'boundary', or a finite number")
    scan_slices = _parse_scan(scan) if scan else None
    result = imaging.ghost_image(obj, mask, k, kappa_prime=kappa_prime, scan=scan_slices)
    files = _finish(name, out, f"ghost_{Path(object_path).stem}",
                    {"object": object_path, "mask": mask_path, "kappa": k,
                     "kappa_prime": kappa_prime, "scan": scan},
                    {".bucket.txt": result.bucket, ".txt": result.reconstruction,
                     ".pgm": result.reconstruction if plot else None},
                    results={"kappa_prime": result.kappa_prime,
                             "kappa_prime_mode": result.kappa_prime_mode,
                             "partial": result.partial})
    if result.partial:
        click.echo("warning: scan does not cover every bucket position; "
                   "reconstruction flagged partial", err=True)
    click.echo(f"reconstruction {result.reconstruction.shape} -> {files[1]}")


@main.group()
def watermark() -> None:
    """Embed a delta-correlated mark in an image, or locate one."""


@watermark.command()
@click.argument("host_path", metavar="HOST")
@click.argument("mark_path", metavar="MARK")
@click.option("--offset", required=True, help="Top-left corner of the mark, e.g. 16,16.")
@click.option("--plot", is_flag=True, help="Also render the marked image as PGM.")
@_artefact_options
def embed(host_path, mark_path, offset, plot, name, out):
    """Add the mark into the host at a fixed offset."""
    from . import imaging
    host, mark = _read_tensor(host_path), _read_tensor(mark_path)
    off = _parse_ints(offset, "--offset")
    marked = imaging.watermark_embed(host, mark, off)
    files = _finish(name, out, f"marked_{Path(host_path).stem}",
                    {"host": host_path, "mark": mark_path, "offset": list(off)},
                    {".txt": marked, ".pgm": marked if plot else None})
    click.echo(f"marked image -> {files[0]}")


@watermark.command()
@click.argument("image_path", metavar="IMAGE")
@click.argument("mark_path", metavar="MARK")
@_artefact_options
def locate(image_path, mark_path, name, out):
    """Search an image for the mark by a single cross-correlation."""
    from . import imaging
    image, mark = _read_tensor(image_path), _read_tensor(mark_path)
    payload = imaging.watermark_locate(image, mark)._asdict()
    _finish(name, out, f"locate_{Path(image_path).stem}", {"image": image_path, "mark": mark_path},
            {".locate.json": payload}, results=payload)
    click.echo(json.dumps(payload, sort_keys=True))


@main.command()
@click.option("--shape", default="5,5", show_default=True, help="Array extents, comma-separated.")
@click.option("--values", default="-12:14", show_default=True,
              help="Half-open integer pool LO:HI the entries are drawn from without replacement.")
@click.option("--trials", type=click.IntRange(min=1), default=10_000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dump-values", is_flag=True, help="Also write per-trial R and M as CSV.")
@_artefact_options
def baseline(shape, values, trials, seed, dump_values, name, out):
    """Monte-Carlo R and M statistics of random non-repeating arrays."""
    from . import imaging
    shp = _parse_ints(shape, "--shape")
    try:
        lo, hi = (int(v) for v in values.split(":"))
    except ValueError:
        raise click.UsageError(f"--values must be LO:HI integers, got {values!r}")
    stats = imaging.random_baseline(shape=shp, values=range(lo, hi),
                                    trials=trials, seed=seed)
    payload = {
        "trials": stats.trials,
        "shape": list(stats.shape),
        "R": {"min": stats.R[0], "mean": stats.R[1], "max": stats.R[2]},
        "M": {"min": stats.M[0], "mean": stats.M[1], "max": stats.M[2]},
        "undefined": stats.undefined,
    }
    csv = None
    if dump_values and not stats.undefined:
        csv = "trial,R,M\n" + "".join(
            "%d,%.9g,%.9g\n" % (i, r_v, m_v) for i, (r_v, m_v) in enumerate(zip(stats.R_values, stats.M_values))
        )
    _finish(name, out, f"baseline_{'x'.join(str(v) for v in shp)}_{trials}",
            {"shape": list(shp), "values": values, "trials": trials},
            {".json": payload, ".csv": csv}, seed=seed, results=payload)
    click.echo(json.dumps(payload, sort_keys=True))


@main.command(name="noise-study")
@click.argument("object_path", metavar="OBJECT")
@click.argument("mask_path", metavar="MASK")
@click.option("--sigma", type=float, default=1.0, show_default=True)
@click.option("--trials", type=click.IntRange(min=1), default=500, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@_artefact_options
def noise_study(object_path, mask_path, sigma, trials, seed, name, out):
    """Raster vs diffuse acquisition MSE under equal per-measurement noise."""
    from . import imaging
    obj, mask = _read_tensor(object_path), _read_tensor(mask_path)
    study = imaging.multiplex_noise_study(obj, mask, sigma, trials=trials, seed=seed)
    payload = {key: value for key, value in vars(study).items() if key not in ("seed", "ratios")}
    _finish(name, out, f"noise_{Path(object_path).stem}",
            {"object": object_path, "mask": mask_path, "sigma": sigma, "trials": trials},
            {".json": payload}, seed=seed, results=payload)
    click.echo(json.dumps(payload, sort_keys=True))


# ---------------------------------------------------------------------------
# table regeneration


_TABLE1_ALPHABETS = (
    (0, 1, 5, 10, 37, 140),
    (0, 1, 4, 8, 28, 99),
    (0, 1, 4, 8, 24, 75),
    (0, 1, 4, 8, 23, 69),
    (0, 1, 4, 8, 21, 59),
    (0, 1, 3, 6, 16, 44),
    (0, 1, 2, 4, 7, 13),
    (0, 1, 1, 1, 1, 1),
)


def _off_peak_span(tensor: Tensor) -> tuple[int, int]:
    corr = correlate(tensor, tensor)
    off = np.asarray(corr.values.data).copy()
    off[corr.zero_index] = 0
    return int(off.min()), int(off.max())


@main.command()
@click.option("--table", type=click.Choice(["1", "2"]), required=True)
@click.option("--e", type=int, default=3, show_default=True, help="Inner-diamond letter (table 2).")
@click.option("--f-min", type=click.IntRange(min=1), default=3, show_default=True)
@click.option("--f-max", type=int, default=20, show_default=True)
@_artefact_options
def tables(table, e, f_min, f_max, name, out):
    """Regenerate the 5x5 / 7x7 family tables as CSV.

    The bits column follows the printed tables' span convention
    (``metrics.span_bits``), not the magnitude convention of QualityReport.
    """
    from .construct import diamond7_solve, diamond_array
    if table == "1":
        # The 5x5 survey includes near-miss alphabets whose inner side lobes
        # exceed the edge value, so materialize without the quasi recheck.
        stem = "table1"
        lines = ["a,b,c,d,e,f,R,M,cedge,bits,off_lo,off_hi"]
        for alpha in _TABLE1_ALPHABETS:
            tensor = diamond_array(5, alpha)
            rep = classify(tensor)
            lo, hi = _off_peak_span(tensor)
            lines.append(
                "%s,%.6g,%.6g,%d,%d,%d,%d"
                % (",".join(str(v) for v in alpha), rep.R, rep.M, rep.C_edge,
                   span_bits(tensor), lo, hi)
            )
        args = {"table": 1}
    else:
        stem = f"table2_e{e}"
        lines = ["f,g,h,R,M,S,bits,OP"]
        rows = sorted(diamond7_solve(e, range(f_min, f_max + 1)),
                      key=lambda s: (-s.values[5], -s.values[6], -s.values[7]))
        for sol in rows:
            rep = sol.report
            lines.append("%d,%d,%d,%.6g,%.6g,%.6g,%d,%s"
                         % (*sol.values[5:8], rep.R, rep.M, rep.S, span_bits(diamond_array(7, sol.values)), rep.OP))
        args = {"table": 2, "e": e, "f_min": f_min, "f_max": f_max}

    files = _finish(name, out, stem, args, {".csv": "\n".join(lines) + "\n"}, results={"rows": len(lines) - 1})
    click.echo(f"{len(lines) - 1} rows -> {files[0]}")


if __name__ == "__main__":
    main()
