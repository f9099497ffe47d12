"""Golden runs of every CLI command through click's CliRunner.

Each case runs twice, in two fresh directories, on the same small inputs.
Both runs must give the same exit code, output and file bytes, and every
``run.json`` must list exactly the artefacts on disk beside it.  The integer
``.txt`` arrays and the ``tables`` CSVs are also pinned by SHA-256 in
``tests/data/cli_golden.json``.  Float-valued artefacts are not pinned: their
last digit may move between numpy builds.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from huffkit import cli
from huffkit.cli import main

from conftest import DATA, oracle_correlate

PINNED = json.loads((DATA / "cli_golden.json").read_text())

_OBJ = np.arange(36).reshape(6, 6) % 7
_MASK = np.outer([1, 2, 2, -2, 1], [1, 2, 2, -2, 1])
_RANDOM_MASK = np.array([[2, 1, 0], [-2, -1, -3], [-3, -3, -2]])  # deblur diverges on it


def _text(arr) -> str:
    arr = np.asarray(arr)
    rows = arr if arr.ndim == 2 else arr.reshape(1, -1)
    return " ".join(map(str, arr.shape)) + "\n" + "".join(" ".join(map(str, r)) + "\n" for r in rows)


INPUTS = {
    "obj.txt": _text(_OBJ),
    "mask.txt": _text(_MASK),
    "blurred.txt": _text(oracle_correlate(_MASK, _OBJ)),
    "rmask.txt": _text(_RANDOM_MASK),
    "rblurred.txt": _text(oracle_correlate(_RANDOM_MASK, _OBJ)),
    "host.txt": _text(np.arange(144).reshape(12, 12) * 7 % 11),
    "wave.txt": "9\n0.5 -1.25 2.0 3.5 -0.75 1.0 -2.5 0.25 1.5\n",
    "nan.txt": "2 2\n1.0 nan\n2.0 3.0\n",
    "cube.txt": _text(np.arange(60).reshape(3, 4, 5) ** 2 % 13 - 6),
    "spec.json": '{"coefficients": {"3": 0.333}, "samples": [9], "step": 0.5}\n',
    "typo.json": '{"coefficients": {"3": 0.333}, "samples": [9], "stpe": 0.5}\n',
}

# case id -> (expected exit code, command line without --out)
CASES = {
    "generate-fibonacci": (0, ["generate", "--family", "fibonacci", "-N", "11"]),
    "generate-h5": (0, ["generate", "--family", "h5", "--n", "2", "--variant", "odd"]),
    "generate-catalog": (0, ["generate", "--family", "catalog", "--key", "H9", "--name", "h9"]),
    "generate-even": (0, ["generate", "--family", "even", "--key", "H8"]),
    "generate-diamond5": (0, ["generate", "--family", "diamond5", "--alphabet", "0,1,3,6,16,44"]),
    "generate-diamond7": (0, ["generate", "--family", "diamond7", "--e", "3", "--f", "6"]),
    "generate-diamond7-odd": (3, ["generate", "--family", "diamond7", "--e", "3", "--f", "5"]),
    "generate-outer": (0, ["generate", "--family", "outer", "--factor", "catalog:H4", "--factor", "catalog:H4"]),
    "generate-outer-exact": (0, ["generate", "--family", "outer", "--factor", "fibonacci_binet:127:2",
                                 "--factor", "fibonacci_binet:127:2"]),
    "generate-usage": (1, ["generate", "--family", "fibonacci"]),
    "analyze": (0, ["analyze", "in/mask.txt", "--oversample", "2", "--plot"]),
    "analyze-missing": (2, ["analyze", "in/missing.txt"]),
    "project": (0, ["project", "in/mask.txt", "--dir", "1:-1"]),
    "project-3d": (0, ["project", "in/cube.txt", "--dir", "1:0:-2"]),
    "twin": (0, ["twin", "in/mask.txt"]),
    "probe": (0, ["probe", "--coeff", "3=1/3", "--samples", "33", "--step", "0.5", "--plot"]),
    "probe-spec": (0, ["probe", "--spec", "in/spec.json"]),
    "probe-spec-typo": (3, ["probe", "--spec", "in/typo.json"]),
    "discretize-airy": (0, ["discretize", "--airy", "-10:4:0.5", "--max-iters", "20"]),
    "discretize-input": (0, ["discretize", "in/wave.txt", "--bits", "4", "--objective", "R"]),
    "encode": (0, ["encode", "in/obj.txt", "in/mask.txt", "--plot"]),
    "encode-nan": (3, ["encode", "in/nan.txt", "in/mask.txt", "--plot"]),
    "decode": (0, ["decode", "in/blurred.txt", "in/mask.txt", "--plot"]),
    "deblur": (0, ["deblur", "in/blurred.txt", "in/mask.txt", "-p", "3", "--plot"]),
    "deblur-diverged": (4, ["deblur", "in/rblurred.txt", "in/rmask.txt", "-p", "8"]),
    "pedestal": (0, ["pedestal", "in/obj.txt", "in/mask.txt"]),
    "ghost": (0, ["ghost", "in/obj.txt", "in/mask.txt", "--plot"]),
    "ghost-scan": (0, ["ghost", "in/obj.txt", "in/mask.txt", "--kappa-prime", "boundary",
                       "--scan", "0:6,0:6", "--name", "partial"]),
    "watermark-embed": (0, ["watermark", "embed", "in/host.txt", "in/mask.txt", "--offset", "3,4", "--plot"]),
    "watermark-locate": (0, ["watermark", "locate", "in/host.txt", "in/mask.txt"]),
    "baseline": (0, ["baseline", "--shape", "3,3", "--values", "-5:5", "--trials", "40",
                     "--seed", "3", "--dump-values"]),
    "noise-study": (0, ["noise-study", "in/obj.txt", "in/mask.txt", "--trials", "4", "--seed", "1"]),
    "tables-1": (0, ["tables", "--table", "1"]),
    "tables-2": (0, ["tables", "--table", "2", "--f-min", "3", "--f-max", "8"]),
}


def _run(root: Path, argv, monkeypatch):
    """Run one command in ``root`` with relative paths, so run records match across roots."""
    (root / "in").mkdir(parents=True)
    for name, text in INPUTS.items():
        (root / "in" / name).write_text(text)
    monkeypatch.chdir(root)
    result = CliRunner().invoke(main, [*argv, "--out", "out"])
    out = root / "out"
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}
    return result, files


def _pinnable(case: str, name: str, data: bytes) -> bool:
    if name.endswith(".csv"):
        return case.startswith("tables")
    if not name.endswith(".txt"):
        return False
    try:
        [int(v) for v in data.split()]
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_run(case, tmp_path, monkeypatch):
    code, argv = CASES[case]
    first, files = _run(tmp_path / "first", argv, monkeypatch)
    second, again = _run(tmp_path / "second", argv, monkeypatch)

    assert first.exit_code == code, first.output
    assert (first.exception is None) if code == 0 else isinstance(first.exception, SystemExit)
    assert (second.exit_code, second.output) == (first.exit_code, first.output)
    assert again == files

    records = {name: json.loads(data) for name, data in files.items() if name.endswith(".run.json")}
    listed = set(records).union(*(r["files"] for r in records.values()))
    assert listed == set(files)
    command = " ".join(argv[:2]) if argv[0] == "watermark" else argv[0]
    assert all(r["command"] == command for r in records.values())

    digests = {name: hashlib.sha256(data).hexdigest()
               for name, data in files.items() if _pinnable(case, name, data)}
    assert digests == PINNED.get(case, {})


def test_paper_scale_outer_product_stays_exact(tmp_path, monkeypatch):
    # 43-bit factors: the 86-bit products wrap in int64 and score as class "other"
    result, _ = _run(tmp_path, CASES["generate-outer-exact"][1], monkeypatch)
    report = json.loads(result.output)
    assert (report["class"], report["bits"]) == ("canonical", 86)


def test_failed_write_leaves_no_artefacts(tmp_path, monkeypatch):
    def refuse(tensor, path):
        Path(path).write_bytes(b"P5\n")
        raise OSError(f"disk full: {path}")

    monkeypatch.setattr(cli, "_plot_pgm", refuse)
    result, files = _run(tmp_path, CASES["encode"][1], monkeypatch)
    assert result.exit_code == 2, result.output
    assert (tmp_path / "out").is_dir()
    assert files == {}
