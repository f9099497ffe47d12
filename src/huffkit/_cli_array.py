"""The CLI's array commands: generate, analyze, project, twin and tables."""

import json
from pathlib import Path

import numpy as np

from ._cli import (UsageError, _finish, _given, _parse_ints, _read_tensor, _refuse_given,
                   _report_payload, at_least, command, option)
from .lattice import Tensor, correlate
from .metrics import classify, cross_metrics, span_bits, spectral_flatness
from .project import _direction_components, as_direction, project, twin as twin_of

# --family choices that are not construct._FAMILIES names
_FAMILY_ALIASES = {"fibonacci": "fibonacci_binet", "h5": "h5_family", "even": "catalog", "outer": "outer_product"}


@command()
@option("--family", required=True, choices=sorted([*_FAMILY_ALIASES, "catalog", "diamond5", "diamond7"]))
@option("--length", "-N", "--N", type=int, help="Sequence length (4n+3 family).")
@option("--b", type=int, help="Even base of the recurrence family.  [default: 2]")
@option("--n", type=int, help="Index within the length-5 family.")
@option("--variant", choices=["even", "odd"], help="Length-5 family variant.  [default: even]")
@option("--key", help="Catalog entry name (see `generate --family catalog --key help`).")
@option("--alphabet", help="Comma-separated template letters (6 for 5x5, 8 for 7x7).")
@option("--e", type=int, help="7x7 inner-diamond letter.")
@option("--f", type=int, help="7x7 free letter; with --e 3 and no --g/--h, uses the closed form.")
@option("--g", type=int)
@option("--h", dest="h_letter", metavar="H", type=int)
@option("--factor", dest="factors", metavar="FACTOR", action="append", default=[],
        help="Outer-product factor, e.g. catalog:H9 or fibonacci_binet:15:2.")
def generate(family, length, b, n, variant, key, alphabet, e, f, g, h_letter, factors):
    """Construct an array from a named family and score it; an option the family does not read is refused."""
    from . import construct  # through the package, which pauses the collector while construct imports
    family = _FAMILY_ALIASES.get(family, family)
    if family != "diamond7" or alphabet is not None:
        _refuse_given("is read by --family diamond7 without --alphabet only", "e", "f", "g", "h_letter")
    reads = [attr for _, attr, _ in construct._FAMILIES[family][1]]
    if foreign := [p.dest for p in _given("length", "b", "n", "variant", "key", "alphabet", "factors")
                   if p.dest not in reads]:
        raise UsageError(f"{family} does not read {', '.join(foreign)}")
    if alphabet is not None:
        alphabet = _parse_ints(alphabet, "--alphabet")
    elif e is not None and f is not None:
        if g is None and h_letter is None and e == 3:
            g, h_letter = construct.diamond7_closed_form(f)
        elif g is None or h_letter is None:
            raise UsageError("give both --g and --h, or neither with --e 3 (closed form)")
        alphabet = (0, 0, 0, 1, e, f, g, h_letter)
    try:  # a comma inside one --factor also separates factors
        fields = [construct.HuffmanSpec._compact_fields(token) for factor in factors for token in factor.split(",")]
    except ValueError as exc:
        raise UsageError(f"--factor: {exc}") from None
    given = dict(length=length, b=b, n=n, variant=variant, key=key, alphabet=alphabet,
                 factors=tuple(construct.HuffmanSpec(**kw) for kw in fields) or None)
    try:
        spec = construct.HuffmanSpec(family, **{attr: value for attr, value in given.items() if value is not None})
    except TypeError as exc:  # a field the family reads is missing
        raise UsageError(str(exc)) from None
    tensor = construct.build(spec)
    report = classify(tensor)
    stem = "generate_" + spec.to_text().replace("family=", "").replace(" ", "_").replace("=", "-").replace(",", "_").replace(":", "-")
    _finish(stem, {"spec": spec.to_text()}, {".txt": tensor, ".report.json": _report_payload(report)},
            results={"shape": list(tensor.shape)})
    print(report.to_json())


@command()
@option("input_path", metavar="INPUT")
@option("--oversample", type=at_least(1), default=1, help="Zero-padding factor for the spectral-flatness DFT.")
@option("--plot", action="store_true", help="Also render |auto-correlation| as PGM.")
def analyze(input_path, oversample, plot):
    """Score an array: merit factor, side-lobe ratio, flatness, class."""
    tensor = _read_tensor(input_path)
    report = classify(tensor)
    payload = _report_payload(report)
    if oversample > 1:
        payload["S"] = spectral_flatness(tensor, oversample=oversample)
        payload["S_oversample"] = oversample
    mags = None
    if plot:
        corr = correlate(tensor, tensor)
        mags = Tensor(np.abs(np.asarray(corr.values.data, dtype=np.float64)), "real")
    _finish(f"analyze_{Path(input_path).stem}", {"input": input_path, "oversample": oversample},
            {".report.json": payload, ".corr.pgm": mags})
    print(json.dumps(payload, sort_keys=True))


@command("project")
@option("input_path", metavar="INPUT")
@option("--dir", dest="direction", metavar="DIR", required=True, help="Projection direction p:q (2D) or p:q:r (3D).")
def project_cmd(input_path, direction):
    """Project an array along a rational direction and score the result."""
    try:
        components = _direction_components(direction)
    except ValueError as exc:
        raise UsageError(f"--dir: {exc}") from None
    tensor = _read_tensor(input_path)
    d = as_direction(components, ndim=tensor.ndim)
    projected = project(tensor, d)
    report = classify(projected)
    _finish(f"project_{Path(input_path).stem}_{str(d).replace(':', '_').replace('-', 'm')}",
            {"input": input_path, "dir": str(d)},
            {".txt": projected, ".report.json": _report_payload(report)},
            results={"shape": list(projected.shape)})
    print(report.to_json())


@command("twin")
@option("input_path", metavar="INPUT")
def twin_cmd(input_path):
    """Emit the parity-flipped twin and its cross-correlation metrics."""
    tensor = _read_tensor(input_path)
    tw = twin_of(tensor)
    report = classify(tw)
    cross_r, cross_m = cross_metrics(correlate(tensor, tw))
    payload = _report_payload(report)
    results = {"cross_R": cross_r, "cross_M": cross_m}
    payload.update(results)
    _finish(f"twin_{Path(input_path).stem}", {"input": input_path},
            {".txt": tw, ".report.json": payload}, results=results)
    print(json.dumps(results, sort_keys=True))



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


@command()
@option("--table", choices=["1", "2"], required=True)
@option("--e", type=int, default=3, help="Inner-diamond letter (table 2).")
@option("--f-min", type=at_least(1), default=3)
@option("--f-max", type=int, default=20)
def tables(table, e, f_min, f_max):
    """Regenerate the 5x5 / 7x7 family tables as CSV.

    The bits column follows the printed tables' span convention
    (``metrics.span_bits``), not the magnitude convention of QualityReport.
    """
    from . import construct
    if table == "1":
        _refuse_given("is read by --table 2 only", "e", "f_min", "f_max")
        # The 5x5 survey includes near-miss alphabets whose inner side lobes
        # exceed the edge value, so materialize without the quasi recheck.
        stem = "table1"
        lines = ["a,b,c,d,e,f,R,M,cedge,bits,off_lo,off_hi"]
        for alpha in _TABLE1_ALPHABETS:
            tensor = construct.diamond_array(5, alpha)
            rep = classify(tensor)
            lo, hi = _off_peak_span(tensor)
            lines.append(
                "%s,%.6g,%.6g,%d,%d,%d,%d"
                % (",".join(str(v) for v in alpha), rep.R, rep.M, rep.C_edge,
                   span_bits(tensor), lo, hi)
            )
        args = {"table": 1}
    else:
        if f_min > f_max:
            raise UsageError(f"--f-min {f_min} is above --f-max {f_max}, so the f range is empty")
        stem = f"table2_e{e}"
        lines = ["f,g,h,R,M,S,bits,OP"]
        rows = sorted(construct.diamond7_solve(e, range(f_min, f_max + 1)),
                      key=lambda s: (-s.values[5], -s.values[6], -s.values[7]))
        for sol in rows:
            rep = sol.report
            bits = span_bits(construct.diamond_array(7, sol.values))
            lines.append("%d,%d,%d,%.6g,%.6g,%.6g,%d,%s" % (*sol.values[5:8], rep.R, rep.M, rep.S, bits, rep.OP))
        args = {"table": 2, "e": e, "f_min": f_min, "f_max": f_max}

    files = _finish(stem, args, {".csv": "\n".join(lines) + "\n"}, results={"rows": len(lines) - 1})
    print(f"{len(lines) - 1} rows -> {files[0]}")
