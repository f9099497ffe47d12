"""The CLI's continuum commands: probe and discretize."""

import json
import math
from pathlib import Path

import numpy as np

from ._cli import (UsageError, _artefact_options, _finish, _parse_ints, _read_tensor, _refuse_given, _report_payload,
                   at_least, command, option)
from .continuum import ProbeSpec, airy, discretize_and_tweak, synthesize_probe, verify_delta_correlation


def _parse_coeff(text: str) -> tuple[tuple[int, ...], float]:
    key, eq, value = text.partition("=")
    num, slash, den = value.partition("/")
    try:
        if eq:
            return tuple(int(v) for v in key.split(",")), float(num) / float(den) if slash else float(num)
    except (ValueError, ZeroDivisionError):
        pass
    raise UsageError(f"--coeff needs EXPONENTS=VALUE, e.g. 3=1/3 or 1,2=0.5, got {text!r}")


@command()
@option("--spec", dest="spec_path", metavar="SPEC", help="ProbeSpec JSON file (alternative to flags).")
@option("--coeff", dest="coeffs", metavar="COEFF", action="append", default=[],
        help="Phase monomial EXPONENTS=VALUE, e.g. 3=1/3 or 1,2=0.5; repeatable.")
@option("--samples", help="Grid points per axis, e.g. 257 or 64,64.")
@option("--bandwidth", type=float, default=1.0)
@option("--plot", action="store_true", help="Also render the probe as PGM.")
@_artefact_options
def probe(spec_path, coeffs, samples, bandwidth, plot, name, out):
    """Synthesize a flat-spectrum probe from an odd polynomial phase (--spec, or --coeff/--samples/--bandwidth)."""
    if spec_path:
        _refuse_given("cannot be given with --spec", "coeffs", "samples", "bandwidth")
        spec = ProbeSpec.from_json(Path(spec_path).read_text())
    else:
        if not coeffs or not samples:
            raise UsageError("--coeff and --samples are required without --spec")
        spec = ProbeSpec(
            coefficients=dict(_parse_coeff(c) for c in coeffs),
            samples=_parse_ints(samples, "--samples"),
            bandwidth=bandwidth,
        )
    tensor = synthesize_probe(spec)
    delta = verify_delta_correlation(tensor)
    results = {"periodic_rel": delta.periodic_rel, "aperiodic_rel": delta.aperiodic_rel}
    _finish(name, out, "probe", {"spec": json.loads(spec.to_json())},
            {".txt": tensor, ".spec.json": spec.to_json() + "\n", ".delta.json": dict(results, peak=delta.peak),
             ".pgm": tensor if plot else None},
            results=results)
    print(json.dumps(results, sort_keys=True))


@command()
@option("input_path", metavar="INPUT", nargs="?")
@option("--airy", dest="airy_window", metavar="LO:HI:STEP", help="Sample Ai(x) instead of reading INPUT, e.g. -40:8:0.5.")
@option("--bits", type=at_least(3), default=7)
@option("--objective", choices=["M", "R"], default="M")
@option("--max-iters", type=at_least(0), default=500)
@_artefact_options
def discretize(input_path, airy_window, bits, objective, max_iters, name, out):
    """Round a real sequence to integers and greedily tweak it delta-ward."""
    if (input_path is None) == (airy_window is None):
        raise UsageError("give exactly one of INPUT or --airy")
    if airy_window is not None:  # "" is a malformed window, not a missing one
        try:
            lo, hi, step = (float(v) for v in airy_window.split(":"))
        except ValueError:
            raise UsageError(f"--airy must be LO:HI:STEP, got {airy_window!r}")
        if not (-math.inf < lo < hi < math.inf and 0 < step < math.inf):  # nan fails every comparison
            raise UsageError(f"--airy needs finite LO < HI and STEP > 0, got {airy_window!r}")
        tensor = airy(np.arange(lo, hi + step / 2, step))
        source = {"airy": airy_window}
    else:
        tensor = _read_tensor(input_path)
        source = {"input": input_path}
    result = discretize_and_tweak(tensor, bits, objective=objective, max_iters=max_iters)
    payload = _report_payload(result.report)
    payload["iterations"] = result.iterations
    results = {"iterations": result.iterations, "M": payload["M"], "R": payload["R"]}
    _finish(name, out, "discretize", dict(source, bits=bits, objective=objective, max_iters=max_iters),
            {".txt": result.tensor, ".report.json": payload}, results=results)
    print(json.dumps(results, sort_keys=True))
