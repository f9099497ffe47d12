"""CLI exit codes, run-record versions and start-up imports."""

import csv
import json
import math
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from huffkit import lattice
from huffkit._cli import _COMMANDS
from huffkit.cli import main

from conftest import DATA, invoke

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "content",
    [b"P5\n4 4\n255\nab", b"P5\n4 4", b"P5\n# comment without end"],
    ids=["payload", "header", "comment"],
)
def test_truncated_pgm_is_an_io_error(tmp_path, content):
    path = tmp_path / "cut.pgm"
    path.write_bytes(content)
    result = invoke(["analyze", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    with pytest.raises(OSError, match="truncated"):
        lattice.read_pgm(path)


def test_impossible_pgm_is_a_domain_error(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 1\n3\n\x05\x07")
    out = tmp_path / "out"
    result = invoke(["analyze", str(path), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "above maxval 3" in result.output
    assert not out.exists()


def test_failed_sum_check_exits_numerical(tmp_path, monkeypatch):
    original = lattice._direct

    def off_by_one(a, b, out_shape):
        out = original(a, b, out_shape)
        out.reshape(-1)[0] += 1
        return out

    monkeypatch.setattr(lattice, "_direct", off_by_one)
    result = invoke(["generate", "--family", "fibonacci", "-N", "7", "--out", str(tmp_path)])
    assert result.exit_code == 4, result.output


def test_table2_classifies_each_solution_once(tmp_path, monkeypatch):
    from huffkit import _cli_array, construct, metrics

    calls = []

    def counted(a):
        calls.append(a)
        return metrics.classify(a)

    for module in (construct, _cli_array):
        monkeypatch.setattr(module, "classify", counted)
    result = invoke(["tables", "--table", "2", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "66 rows" in result.output
    # the solver scans only f = 3..20, so it classifies each printed row once
    assert len(calls) == 66


def test_run_record_reads_click_version_without_deprecation(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = invoke(["generate", "--family", "h5", "--n", "1", "--name", "h5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "h5.run.json").read_text())
    assert record["versions"] == {"numpy": np.__version__, "python": platform.python_version()}


@pytest.mark.parametrize(
    "module", ["scipy.signal", "scipy", "huffkit.construct", "huffkit.continuum", "huffkit.imaging"]
)
def test_cli_import_does_not_load_scipy(module):
    code = f"import sys, huffkit.cli; sys.exit(int({module!r} in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


@pytest.mark.parametrize(
    "argv, own",
    [
        (["generate", "--family", "h5", "--n", "1"], ["huffkit.metrics", "huffkit.construct", "huffkit._cli_array"]),
        (["analyze", "{tmp}/h9.txt"], ["huffkit.metrics", "huffkit._cli_array"]),
        (["discretize", "--airy", "-4:4:0.5", "--max-iters", "2"],
         ["huffkit.metrics", "huffkit.continuum", "huffkit._cli_continuum"]),
        (["baseline", "--trials", "5"], ["huffkit.metrics", "huffkit.imaging", "huffkit._cli_imaging"]),
        (["encode", "{tmp}/h9.txt", "{tmp}/h9.txt"], ["huffkit.imaging", "huffkit._cli_imaging"]),
    ],
    ids=["generate", "analyze", "discretize", "baseline", "encode"],
)
def test_command_loads_only_its_own_domain_module(tmp_path, argv, own):
    """Of the lazily loaded modules, a command loads the ones it runs and its command module only, and never click."""
    (tmp_path / "h9.txt").write_text("9\n1 3 4 2 -2 -2 4 -3 1\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from huffkit.cli import main\n"
        f"main({argv!r})\n"
        "lazy = ('huffkit.metrics', 'huffkit.construct', 'huffkit.continuum', 'huffkit.imaging',\n"
        "        'huffkit._cli_array', 'huffkit._cli_continuum', 'huffkit._cli_imaging')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "print([m for m in ('importlib.metadata', 'email', 'click') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [repr(own), "[]"]


def test_module_entry_imports_each_source_file_once(tmp_path):
    """Under ``python -m huffkit.cli`` the file runs as __main__, so nothing may import it as huffkit.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    argv = ["-X", "importtime", "-m", "huffkit.cli", "generate", "--family", "h5", "--n", "1", "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    imported = [line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines() if line.startswith("import time:")]
    ours = [name for name in imported if name.split(".")[0] == "huffkit"]
    assert sorted(ours) == ["huffkit", "huffkit._cli", "huffkit._cli_array", "huffkit.construct", "huffkit.lattice",
                            "huffkit.metrics", "huffkit.project"]


def test_non_finite_plot_is_a_domain_error(tmp_path):
    obj = tmp_path / "obj.txt"
    obj.write_text("2 2\n1.0 nan\n2.0 3.0\n")
    mask = tmp_path / "mask.txt"
    mask.write_text("1 1\n1\n")
    result = invoke(["encode", str(obj), str(mask), "--plot", "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mask_decode_is_a_domain_error(tmp_path):
    blurred = tmp_path / "blurred.txt"
    blurred.write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    mask = tmp_path / "zero.txt"
    mask.write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = invoke(["decode", str(blurred), str(mask), "--plot", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output
    assert "zero-energy mask" in result.output
    assert not out.exists()  # refused before any work, so not even the out dir is made


@pytest.mark.parametrize(
    "shape, scan",
    [((6,), "0:6,0:6"), ((3, 3), "0:6")],
    ids=["two-slices-for-1d", "one-slice-for-2d"],
)
def test_ghost_scan_needs_one_slice_per_axis(tmp_path, shape, scan):
    values = " ".join(["1"] * math.prod(shape))
    (tmp_path / "obj.txt").write_text(" ".join(map(str, shape)) + "\n" + values + "\n")
    (tmp_path / "mask.txt").write_text(" ".join(["2"] * len(shape)) + "\n" + " ".join(["1"] * 2 ** len(shape)) + "\n")
    out = tmp_path / "out"
    argv = ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--scan", scan, "--out", str(out)]
    result = invoke(argv)
    assert result.exit_code == 3, result.output
    assert "one per axis" in result.output
    assert not out.exists()


def test_pedestal_auto_kappa_is_the_largest_magnitude(tmp_path):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = ["pedestal", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--name", "p", "--out", str(tmp_path)]
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "p.run.json").read_text())["arguments"]["kappa"] == 5.0


@pytest.mark.parametrize("coeff", ["3=abc", "x=1", "3=1/x", "3=1/0"])
def test_malformed_probe_coeff_is_a_usage_error(tmp_path, coeff):
    result = invoke(["probe", "--coeff", coeff, "--samples", "9", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"got {coeff!r}" in result.output


@pytest.mark.parametrize("shape", ["0,5", "-1,5", "-2,-3"])
def test_baseline_shape_below_one_is_a_domain_error(tmp_path, shape):
    result = invoke(["baseline", "--shape", shape, "--trials", "3", "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert f"got ({shape.replace(',', ', ')})" in result.output


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["ghost", "pedestal"])
def test_non_finite_kappa_is_a_usage_error(tmp_path, command, kappa):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = [command, str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--kappa", kappa, "--out", str(tmp_path)]
    result = invoke(argv)
    assert result.exit_code == 1, result.output
    assert f"--kappa must be a finite number or 'auto', got {kappa!r}" in result.output


@pytest.mark.parametrize("scan", ["0:a,0:1", "0:1:2,0:1", "0,0:1"])
def test_malformed_ghost_scan_is_a_usage_error(tmp_path, scan):
    (tmp_path / "obj.txt").write_text("2 2\n1 2\n3 4\n")
    (tmp_path / "mask.txt").write_text("2 2\n1 -1\n1 1\n")
    out = tmp_path / "out"
    argv = ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--scan", scan, "--out", str(out)]
    result = invoke(argv)
    assert result.exit_code == 1, result.output
    assert "--scan needs integer LO:HI per axis, got" in result.output
    assert not out.exists()


@pytest.mark.parametrize("kappa_prime", ["nan", "inf", "-inf", "abc"])
def test_non_finite_kappa_prime_is_a_usage_error(tmp_path, kappa_prime):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    out = tmp_path / "out"
    argv = ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--kappa-prime", kappa_prime,
            "--out", str(out)]
    result = invoke(argv)
    assert result.exit_code == 1, result.output
    assert f"--kappa-prime must be 'exact', 'boundary', or a finite number, got {kappa_prime!r}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("values", ["a:b", "1.5:9", "3", "1:2:3"])
def test_baseline_non_integer_values_is_a_usage_error(tmp_path, values):
    result = invoke(["baseline", "--values", values, "--trials", "3", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"--values must be LO:HI integers, got {values!r}" in result.output


_ZERO_INPUTS = {"int": "2 2\n0 0\n0 0\n", "real": "3\n0.0 -0.0 0.0\n", "underflow": "2\n1e-200 0\n"}
_ZERO_RUNS = {
    **{f"{command}-{kind}": [command, f"{kind}.txt"] for command in ("analyze", "twin") for kind in _ZERO_INPUTS},
    "project-int": ["project", "int.txt", "--dir", "1:1"],
    "generate-diamond5": ["generate", "--family", "diamond5", "--alphabet", "0,0,0,0,0,0"],
    "discretize-real": ["discretize", "real.txt"],
}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_ZERO_RUNS))
def test_zero_energy_input_is_a_domain_error(tmp_path, monkeypatch, case):
    """C0 = sum(a^2) = 0 leaves R, M and S undefined, so nothing is scored or written."""
    for kind, text in _ZERO_INPUTS.items():
        (tmp_path / f"{kind}.txt").write_text(text)
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "out"
    result = invoke([*_ZERO_RUNS[case], "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "zero-energy input" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mask_ghost_is_a_domain_error(tmp_path):
    (tmp_path / "obj.txt").write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    (tmp_path / "mask.txt").write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = invoke(["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "zero-energy mask" in result.output and "text output" not in result.output
    assert not out.exists()


def test_zero_mark_locate_is_a_domain_error(tmp_path):
    (tmp_path / "image.txt").write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    (tmp_path / "mark.txt").write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = invoke(["watermark", "locate", str(tmp_path / "image.txt"), str(tmp_path / "mark.txt"),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "zero-energy mark" in result.output and "detected" not in result.output
    assert not out.exists()


def test_generate_spec_from_options_names_files_as_the_spec_text_did(tmp_path):
    """Factors may also be comma-separated inside one --factor, and the diamond letters are normalised."""
    runs = {
        "generate_outer_product_factors-catalog-H4_h5_family-1-even.txt":
            ["--family", "outer", "--factor", "catalog:H4,h5_family:1:even"],
        "generate_diamond5_alphabet-0_1_3_6_16_44.txt": ["--family", "diamond5", "--alphabet", "0,01,3,6,+16,44"],
        "generate_diamond7_alphabet-0_0_0_1_3_6_19_33.txt": ["--family", "diamond7", "--e", "3", "--f", "6"],
    }
    for expected, argv in runs.items():
        result = invoke(["generate", *argv, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / expected).exists(), sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("factor", ["fibonacci_binet:a:2", "h5_family:x", "fibonacci_binet:15", "catalog"])
def test_malformed_factor_token_is_a_usage_error(tmp_path, factor):
    result = invoke(["generate", "--family", "outer", "--factor", factor, "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"--factor: bad factor token {factor!r}" in result.output


def test_inadmissible_factor_token_is_a_domain_error(tmp_path):
    argv = ["generate", "--family", "outer", "--factor", "fibonacci_binet:13:2", "--out", str(tmp_path)]
    result = invoke(argv)
    assert result.exit_code == 3, result.output
    assert "4n+3" in result.output


def _invoke_beside_a_spec(tmp_path, monkeypatch, argv):
    """Run ``argv`` in ``tmp_path``, whose ``in/spec.json`` is a valid probe spec, writing into ``out``."""
    (tmp_path / "in").mkdir()
    (tmp_path / "in" / "spec.json").write_text('{"coefficients": {"3": 0.5}, "samples": 9}')
    monkeypatch.chdir(tmp_path)
    return invoke([*argv, "--out", "out"])


@pytest.mark.parametrize("argv, message", [
    (["generate", "--family", "fibonacci", "-N", "15", "--key", "H9"], "fibonacci_binet does not read key"),
    (["generate", "--family", "h5", "--n", "1", "--b", "4"], "h5_family does not read b"),
    (["generate", "--family", "catalog", "--key", "H9", "--factor", "catalog:H4"], "catalog does not read factors"),
    (["generate", "--family", "fibonacci"], "fibonacci_binet needs length"),
    (["generate", "--family", "diamond5"], "diamond5 needs alphabet"),
    (["generate", "--family", "fibonacci", "-N", "15", "--e", "3"], "--e is read by --family diamond7"),
    (["generate", "--family", "diamond5", "--alphabet", "0,1,3,6,16,44", "--f", "6"], "--f is read by --family diamond7"),
    (["generate", "--family", "diamond7", "--alphabet", "0,0,0,1,3,6,19,33", "--g", "19"],
     "--g is read by --family diamond7 without --alphabet"),
    (["generate", "--family", "h5", "--n", "1", "--h", "2"], "--h is read by --family diamond7"),
    (["generate", "--family", "diamond7", "--e", "3", "--f", "6", "--g", "19"], "give both --g and --h"),
    (["probe", "--spec", "in/spec.json", "--coeff", "3=1/3"], "--coeff cannot be given with --spec"),
    (["probe", "--spec", "in/spec.json", "--samples", "5"], "--samples cannot be given with --spec"),
    (["probe", "--spec", "in/spec.json", "--bandwidth", "1.0"], "--bandwidth cannot be given with --spec"),
    (["probe", "--coeff", "3=1/3", "--samples", "9", "--step", "0.5"], "No such option '--step'"),
    (["probe", "--coeff", "3=1/3", "--samples", "9", "--kappa", "0"], "No such option '--kappa'"),
    (["tables", "--table", "1", "--e", "5"], "--e is read by --table 2 only"),
    (["tables", "--table", "1", "--f-min", "3"], "--f-min is read by --table 2 only"),
    (["tables", "--table", "1", "--f-max", "20"], "--f-max is read by --table 2 only"),
    # a foreign option at the spec's default value, and one next to an inadmissible factor, are refused too
    (["generate", "--family", "h5", "--n", "1", "--b", "2"], "h5_family does not read b"),
    (["generate", "--family", "fibonacci", "-N", "15", "--variant", "even"], "fibonacci_binet does not read variant"),
    (["generate", "--family", "fibonacci", "-N", "15", "--factor", "fibonacci_binet:9:2"],
     "fibonacci_binet does not read factors"),
])
def test_an_option_the_run_does_not_read_is_a_usage_error(tmp_path, monkeypatch, argv, message):
    """Given at any value, its default included, such an option is refused by its own flag and nothing is written."""
    result = _invoke_beside_a_spec(tmp_path, monkeypatch, argv)
    assert result.exit_code == 1, result.output
    assert message in result.output
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv, code", [
    (["generate", "--family", "fibonacci", "-N", "9"], 3),
    (["generate", "--family", "fibonacci", "-N", "15", "--b", "3"], 3),
    (["generate", "--family", "fibonacci", "-N", "15", "--b", "4"], 0),
    (["probe", "--spec", "in/spec.json", "--plot", "--name", "s"], 0),
])
def test_options_the_run_reads_keep_their_exit_codes(tmp_path, monkeypatch, argv, code):
    assert _invoke_beside_a_spec(tmp_path, monkeypatch, argv).exit_code == code


@pytest.mark.parametrize("direction, code", [("1:x", 1), ("1", 1), ("1:2:3:4", 1), ("2:2", 3), ("0:0", 3)])
def test_project_direction_text_exits_by_whether_it_parses(tmp_path, direction, code):
    (tmp_path / "a.txt").write_text("2 2\n1 2\n3 4\n")
    out = tmp_path / "out"
    result = invoke(["project", str(tmp_path / "a.txt"), "--dir", direction, "--out", str(out)])
    assert result.exit_code == code, result.output
    if code == 1:
        assert f"--dir: cannot parse direction {direction!r}" in result.output
    assert not out.exists()


def test_probe_spec_without_samples_names_the_key(tmp_path):
    (tmp_path / "spec.json").write_text('{"coefficients": {"3": 0.5}}')
    result = invoke(["probe", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "probe spec has no 'samples'" in result.output


@pytest.mark.parametrize(
    "spec, code, message",
    [
        ('{"coefficients": {"3": 0.5}, "samples": 9}', 0, None),
        ('{"coefficients": [1], "samples": 9}', 3, "coefficients must map exponents to numbers"),
        ('{"coefficients": {"3": 0.5}, "samples": 9, "bandwidth": "x"}', 3, "bandwidth must be a number"),
    ],
    ids=["int-samples", "list-coefficients", "text-bandwidth"],
)
def test_probe_spec_field_types_never_reach_a_traceback(tmp_path, spec, code, message):
    (tmp_path / "spec.json").write_text(spec)
    out = tmp_path / "out"
    argv = ["probe", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]
    result = invoke(argv)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    if message is None:
        assert json.loads((out / "probe.run.json").read_text())["arguments"]["spec"]["samples"] == [9]
    else:
        assert message in result.output
        assert not out.exists()


@pytest.mark.parametrize("window", ["nan:8:0.5", "-inf:8:0.5", "0:inf:1", "0:8:nan"])
def test_non_finite_airy_window_is_a_usage_error(tmp_path, window):
    out = tmp_path / "out"
    result = invoke(["discretize", f"--airy={window}", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"--airy needs finite LO < HI and STEP > 0, got {window!r}" in result.output
    assert not out.exists()


def test_empty_airy_window_is_a_usage_error(tmp_path):
    # an empty window is a malformed one, not a missing one
    out = tmp_path / "out"
    result = invoke(["discretize", "--airy", "", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert "--airy must be LO:HI:STEP, got ''" in result.output
    assert not out.exists()


@pytest.mark.parametrize("window, samples", [("-4:4:1e-12", "8e+12"), ("-1.7e308:1.7e308:1", "inf")])
def test_an_airy_window_past_memory_is_refused_before_it_is_sampled(tmp_path, monkeypatch, window, samples):
    def unreachable(*args, **kwargs):
        raise AssertionError("np.arange was called")

    monkeypatch.setattr(np, "arange", unreachable)
    out = tmp_path / "out"
    result = invoke(["discretize", f"--airy={window}", "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert f"domain error: discretize ran out of memory: --airy {window} makes {samples} samples" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("bits", [31, 40, 64])
def test_discretize_past_int64_is_refused_before_any_cast(tmp_path, bits):
    """At 31 bits the first correlation leaves int64; from 32 bits the rounded samples' squares do."""
    out = tmp_path / "out"
    result = invoke(["discretize", "--airy", "-10:4:0.5", "--bits", str(bits), "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "a +/-1 move would take the auto-correlation past int64" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("exponent, bits", [(-1070, 7), (-1000, 30)], ids=["subnormal", "normal"])
def test_discretize_rounds_a_tiny_peak_as_its_power_of_two_rescaling(tmp_path, exponent, bits):
    """limit / peak overflows for both peaks; the rounding equals that of the probe scaled by 2^-exponent."""
    (tmp_path / "reported.txt").write_text("2\n1e-310 5e-311\n")
    (tmp_path / "tiny.txt").write_text("3\n" + " ".join(repr(math.ldexp(v, exponent)) for v in (3.0, -2.0, 1.0)) + "\n")
    (tmp_path / "plain.txt").write_text("3\n3.0 -2.0 1.0\n")
    out = tmp_path / "out"
    for stem in ("reported", "tiny", "plain"):
        argv = ["discretize", str(tmp_path / f"{stem}.txt"), "--bits", str(bits), "--name", stem, "--out", str(out)]
        result = invoke(argv)
        assert result.exit_code == 0, result.output
    assert (out / "tiny.txt").read_text() == (out / "plain.txt").read_text()


def test_discretize_withholds_a_walk_whose_carried_state_was_corrupted(tmp_path, monkeypatch):
    from huffkit import continuum

    real = continuum._Walk.__init__

    def corrupted(self, start):
        real(self, start)
        self.d.reshape(-1)[0] += 1  # a corner of D, which no score reads

    monkeypatch.setattr(continuum._Walk, "__init__", corrupted)
    out = tmp_path / "out"
    result = invoke(["discretize", "--airy", "-8:4:1", "--bits", "4", "--out", str(out)])
    assert result.exit_code == 4, result.output
    assert "carried correlations failed their sum check" in result.output
    assert not out.exists()


@pytest.mark.parametrize("f_min, f_max", [("5", "2"), ("3", "-1"), ("21", "20")])
def test_tables_refuses_an_empty_f_range(tmp_path, f_min, f_max):
    out = tmp_path / "out"
    result = invoke(["tables", "--table", "2", "--f-min", f_min, "--f-max", f_max, "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"--f-min {f_min} is above --f-max {f_max}" in result.output
    assert not out.exists()


def test_table1_matches_the_printed_5x5_table(tmp_path):
    """cedge and the off-peak span match exactly; R and M match the table's whole numbers to within 1.

    The table rounds some entries and truncates others (736.944 -> 737, 913.714 -> 913).  Its bits
    column follows the span convention except for 0,1,1,1,1,1: that array holds -1, 0 and 1, three
    levels, which ``span_bits`` counts as 2, while the table's 1 is the magnitude count ``metrics.bits``.
    """
    from huffkit.construct import diamond_array
    from huffkit.metrics import bits

    result = invoke(["tables", "--table", "1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    with open(tmp_path / "table1.csv") as fh:
        got = list(csv.DictReader(fh))
    with open(DATA / "table_5x5_families.csv") as fh:
        want = list(csv.DictReader(fh))
    letters = "abcdef"
    assert [[r[k] for k in letters] for r in got] == [[r[k] for k in letters] for r in want]
    for g, w in zip(got, want):
        for key in ("cedge", "off_lo", "off_hi"):
            assert int(g[key]) == int(w[key]), (g, key)
        for key in ("R", "M"):
            assert abs(float(g[key]) - float(w[key])) < 1, (g, key)
        alphabet = tuple(int(g[k]) for k in letters)
        if alphabet == (0, 1, 1, 1, 1, 1):
            assert (int(g["bits"]), int(w["bits"])) == (2, 1)
            assert bits(diamond_array(5, alphabet)) == 1
        else:
            assert int(g["bits"]) == int(w["bits"]), g


def test_ghost_auto_kappa_lifts_the_most_negative_entry(tmp_path):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n9 -5\n")
    argv = ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--name", "g", "--out", str(tmp_path)]
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "g.run.json").read_text())["arguments"]["kappa"] == 5.0


def test_pedestal_with_a_non_integral_kappa_writes_integers(tmp_path):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = ["pedestal", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--kappa", "5.5", "--name", "p",
            "--out", str(tmp_path)]
    result = invoke(argv)
    assert result.exit_code == 0, result.output
    assert (tmp_path / "p.txt").read_text() == "4\n-10 -18 -26 6\n"


# every command with a small run that succeeds; values that start with "-" are read as values
_PARITY_INPUTS = {
    "obj.txt": "4 4\n1 2 3 4\n5 6 7 8\n0 1 0 1\n9 8 7 6\n",
    "mask.txt": "3 3\n1 2 -1\n2 -4 2\n-1 2 1\n",
    "blurred.txt": "6 6\n" + "".join(" ".join(str((r * c) % 5 - 2) for c in range(6)) + "\n" for r in range(6)),
}
_PARITY_RUNS = {
    "generate": ["generate", "--family", "h5", "--n", "1", "--variant", "odd"],
    "analyze": ["analyze", "mask.txt", "--oversample", "2", "--plot"],
    "project": ["project", "mask.txt", "--dir", "-1:2"],
    "twin": ["twin", "mask.txt"],
    "tables": ["tables", "--table", "2", "--e", "3", "--f-min", "3", "--f-max", "4"],
    "probe": ["probe", "--coeff", "3=-1/3", "--samples", "9", "--bandwidth", "0.5"],
    "discretize": ["discretize", "--airy", "-4:4:0.5", "--bits", "5", "--objective", "R", "--max-iters", "2"],
    "encode": ["encode", "obj.txt", "mask.txt", "--plot"],
    "decode": ["decode", "blurred.txt", "mask.txt"],
    "deblur": ["deblur", "blurred.txt", "mask.txt", "-p", "2"],
    "pedestal": ["pedestal", "obj.txt", "mask.txt", "--kappa", "4.5"],
    "ghost": ["ghost", "obj.txt", "mask.txt", "--kappa", "auto", "--kappa-prime", "-0.5", "--scan", "0:6,-3:"],
    "watermark embed": ["watermark", "embed", "blurred.txt", "mask.txt", "--offset", "1,2"],
    "watermark locate": ["watermark", "locate", "blurred.txt", "mask.txt"],
    "baseline": ["baseline", "--shape", "2,2", "--values", "-3:3", "--trials", "3", "--seed", "-1"],
    "noise-study": ["noise-study", "obj.txt", "mask.txt", "--sigma", "0.5", "--trials", "2", "--seed", "7"],
}


def _invoke_in(root, monkeypatch, argv):
    """``invoke(argv)`` in a fresh ``root`` holding the parity inputs, writing into ``root/out``; also the files."""
    root.mkdir(exist_ok=True)
    for fname, text in _PARITY_INPUTS.items():
        (root / fname).write_text(text)
    monkeypatch.chdir(root)
    result = invoke([*argv, "--out", "out"])
    out = root / "out"
    return result, {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.is_dir() else {}


def test_parity_table_runs_every_command():
    assert {argv[0] for argv in _PARITY_RUNS.values()} == set(_COMMANDS)


@pytest.mark.parametrize("command", sorted(_PARITY_RUNS))
def test_option_takes_the_next_word_even_with_a_dash(tmp_path, monkeypatch, command):
    result, files = _invoke_in(tmp_path, monkeypatch, [*_PARITY_RUNS[command], "--name", "-dashed"])
    assert result.exit_code == 0, result.output
    assert "-dashed.run.json" in files


@pytest.mark.parametrize("command", sorted(_PARITY_RUNS))
def test_option_equals_value_is_option_then_value(tmp_path, monkeypatch, command):
    argv, words = [], iter(_PARITY_RUNS[command])
    for word in words:
        argv.append(f"{word}={next(words)}" if word.startswith("-") and word != "--plot" else word)
    spaced, spaced_files = _invoke_in(tmp_path / "spaced", monkeypatch, _PARITY_RUNS[command])
    joined, joined_files = _invoke_in(tmp_path / "joined", monkeypatch, argv)
    assert spaced.exit_code == 0, spaced.output
    assert (joined.exit_code, joined.output, joined_files) == (0, spaced.output, spaced_files)


@pytest.mark.parametrize("word", ["--nam", "--iter", "-h", "--bogus"], ids=["abbreviation", "iter", "h", "unknown"])
@pytest.mark.parametrize("command", sorted(_PARITY_RUNS))
def test_abbreviation_short_h_and_unknown_option_are_no_such_option(tmp_path, monkeypatch, command, word):
    result, files = _invoke_in(tmp_path, monkeypatch, [*_PARITY_RUNS[command], word, "3"])
    assert result.exit_code == 1, result.output
    assert f"No such option '{word}'" in result.output
    assert files == {}


@pytest.mark.parametrize("command", [*sorted(_COMMANDS), "watermark embed", "watermark locate"])
def test_help_exits_0_for_every_command(capsys, command):
    assert main([*command.split(), "--help", "--out", "never"], prog_name="huffkit") == 0  # returns, as on success
    assert capsys.readouterr().out.startswith(f"usage: huffkit {command} ")


@pytest.mark.parametrize("name", ["../x", "a/b", "", ".", ".."])
@pytest.mark.parametrize("command", sorted(_PARITY_RUNS))
def test_name_must_be_a_plain_file_name(tmp_path, monkeypatch, command, name):
    """A ``--name`` that is empty, ``.``, ``..`` or a path is refused before any work, and no file is written."""
    result, _ = _invoke_in(tmp_path / "run", monkeypatch, [*_PARITY_RUNS[command], "--name", name])
    assert (result.exit_code, result.output) == (
        1, f"usage error: argument --name: must be a plain file name, not '', '.', '..' or a path, got {name!r}\n")
    written = sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*"))
    assert written == ["run", *(f"run/{fname}" for fname in sorted(_PARITY_INPUTS))]


@pytest.mark.parametrize("command", sorted(_PARITY_RUNS))
def test_help_lists_name_and_out_after_the_command_s_own_options(capsys, command):
    assert main([*command.split(), "--help"], prog_name="huffkit") == 0
    options = capsys.readouterr().out.partition("\noptions:\n")[2]
    flags = [line.split()[0].rstrip(",") for line in options.splitlines() if line.startswith("  -")]
    assert flags[0] == "--help" and flags[-2:] == ["--name", "--out"], flags
    assert flags.count("--name") == flags.count("--out") == 1, flags
