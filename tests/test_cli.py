"""CLI exit codes, run-record versions and start-up imports."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path

import pytest
from click.testing import CliRunner

from huffkit import lattice
from huffkit.cli import _version, main

from conftest import DATA

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize(
    "content",
    [b"P5\n4 4\n255\nab", b"P5\n4 4", b"P5\n# comment without end"],
    ids=["payload", "header", "comment"],
)
def test_truncated_pgm_is_an_io_error(tmp_path, content):
    path = tmp_path / "cut.pgm"
    path.write_bytes(content)
    result = CliRunner().invoke(main, ["analyze", str(path), "--out", str(tmp_path)])
    assert result.exit_code == 2, result.output
    with pytest.raises(OSError, match="truncated"):
        lattice.read_pgm(path)


def test_failed_sum_check_exits_numerical(tmp_path, monkeypatch):
    original = lattice._direct

    def off_by_one(a, b, out_shape):
        out = original(a, b, out_shape)
        out.reshape(-1)[0] += 1
        return out

    monkeypatch.setattr(lattice, "_direct", off_by_one)
    result = CliRunner().invoke(
        main, ["generate", "--family", "fibonacci", "-N", "7", "--out", str(tmp_path)]
    )
    assert result.exit_code == 4, result.output


def test_table2_classifies_each_solution_once(tmp_path, monkeypatch):
    import huffkit.cli
    from huffkit import construct, metrics

    calls = []

    def counted(a):
        calls.append(a)
        return metrics.classify(a)

    for module in (construct, huffkit.cli):
        monkeypatch.setattr(module, "classify", counted)
    result = CliRunner().invoke(main, ["tables", "--table", "2", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert "66 rows" in result.output
    # the solver scans only f = 3..20, so it classifies each printed row once
    assert len(calls) == 66


def test_run_record_reads_click_version_without_deprecation(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = CliRunner().invoke(
            main, ["generate", "--family", "h5", "--n", "1", "--name", "h5", "--out", str(tmp_path)]
        )
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "h5.run.json").read_text())
    assert record["versions"]["click"] == metadata.version("click")
    assert record["versions"]["scipy"] == metadata.version("scipy")
    for name in ("click", "numpy", "scipy"):
        assert _version(name) == metadata.version(name)


def test_version_search_agrees_with_importlib_metadata(tmp_path, monkeypatch):
    first, second = tmp_path / "first", tmp_path / "second"
    meta = ("Metadata-Version: 2.1\nName: {name}\nSummary: folded\n  over two lines\n"
            "Version: {version}\n\nVersion: 9.9\n")  # the second Version is in the body
    for root, dist, version in [(first, "Foo.Bar-1.0.dist-info", "1.0"), (second, "foo_bar-0.5.dist-info", "0.5")]:
        (root / dist).mkdir(parents=True)
        (root / dist / "METADATA").write_text(meta.format(name="Foo.Bar", version=version))
        (root / dist / "PKG-INFO").write_text(meta.format(name="Foo.Bar", version="0.0"))
    (second / "Baz_Qux-2.0-py3.egg-info").mkdir()
    (second / "Baz_Qux-2.0-py3.egg-info" / "PKG-INFO").write_text(meta.format(name="Baz_Qux", version="2.0rc1"))
    (second / "legacy-3.1.egg-info").write_text(meta.format(name="legacy", version="3.1.post2"))
    monkeypatch.setattr(sys, "path", [str(tmp_path / "absent"), str(first), str(second)])
    for name in ("foo-bar", "FOO_BAR", "foo.bar", "baz-qux", "Baz.Qux", "legacy"):
        assert _version(name) == metadata.version(name), name
    assert [_version(n) for n in ("foo-bar", "baz-qux", "legacy")] == ["1.0", "2.0rc1", "3.1.post2"]
    with pytest.raises(ModuleNotFoundError):
        metadata.version("missing")
    with pytest.raises(ModuleNotFoundError, match="missing"):
        _version("missing")


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
        (["generate", "--family", "h5", "--n", "1"], ["huffkit.construct"]),
        (["analyze", "{tmp}/h9.txt"], []),
        (["discretize", "--airy", "-4:4:0.5", "--max-iters", "2"], ["huffkit.continuum"]),
        (["baseline", "--trials", "5"], ["huffkit.imaging"]),
    ],
    ids=["generate", "analyze", "discretize", "baseline"],
)
def test_command_loads_only_its_own_domain_module(tmp_path, argv, own):
    (tmp_path / "h9.txt").write_text("9\n1 3 4 2 -2 -2 4 -3 1\n")
    argv = [a.format(tmp=tmp_path) for a in argv] + ["--out", str(tmp_path)]
    code = (
        "import sys\n"
        "from huffkit.cli import main\n"
        f"main({argv!r})\n"
        "lazy = ('huffkit.construct', 'huffkit.continuum', 'huffkit.imaging')\n"
        "print([m for m in lazy if m in sys.modules])\n"
        "print([m for m in ('importlib.metadata', 'email') if m in sys.modules])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [repr(own), "[]"]


def test_non_finite_plot_is_a_domain_error(tmp_path):
    obj = tmp_path / "obj.txt"
    obj.write_text("2 2\n1.0 nan\n2.0 3.0\n")
    mask = tmp_path / "mask.txt"
    mask.write_text("1 1\n1\n")
    result = CliRunner().invoke(main, ["encode", str(obj), str(mask), "--plot", "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "finite" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mask_decode_is_a_domain_error(tmp_path):
    blurred = tmp_path / "blurred.txt"
    blurred.write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    mask = tmp_path / "zero.txt"
    mask.write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["decode", str(blurred), str(mask), "--plot", "--out", str(out)])
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
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert "one per axis" in result.output
    assert not out.exists()


def test_pedestal_auto_kappa_is_the_largest_magnitude(tmp_path):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = ["pedestal", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--name", "p", "--out", str(tmp_path)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "p.run.json").read_text())["arguments"]["kappa"] == 5.0


@pytest.mark.parametrize("coeff", ["3=abc", "x=1", "3=1/x", "3=1/0"])
def test_malformed_probe_coeff_is_a_usage_error(tmp_path, coeff):
    result = CliRunner().invoke(main, ["probe", "--coeff", coeff, "--samples", "9", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"got {coeff!r}" in result.output


@pytest.mark.parametrize("shape", ["0,5", "-1,5", "-2,-3"])
def test_baseline_shape_below_one_is_a_domain_error(tmp_path, shape):
    result = CliRunner().invoke(main, ["baseline", "--shape", shape, "--trials", "3", "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert f"got ({shape.replace(',', ', ')})" in result.output


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["ghost", "pedestal"])
def test_non_finite_kappa_is_a_usage_error(tmp_path, command, kappa):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = [command, str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--kappa", kappa, "--out", str(tmp_path)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert f"--kappa must be a finite number or 'auto', got {kappa!r}" in result.output


@pytest.mark.parametrize("scan", ["0:a,0:1", "0:1:2,0:1", "0,0:1"])
def test_malformed_ghost_scan_is_a_usage_error(tmp_path, scan):
    (tmp_path / "obj.txt").write_text("2 2\n1 2\n3 4\n")
    (tmp_path / "mask.txt").write_text("2 2\n1 -1\n1 1\n")
    out = tmp_path / "out"
    argv = ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--scan", scan, "--out", str(out)]
    result = CliRunner().invoke(main, argv)
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
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert f"--kappa-prime must be 'exact', 'boundary', or a finite number, got {kappa_prime!r}" in result.output
    assert not out.exists()


@pytest.mark.parametrize("values", ["a:b", "1.5:9", "3", "1:2:3"])
def test_baseline_non_integer_values_is_a_usage_error(tmp_path, values):
    result = CliRunner().invoke(main, ["baseline", "--values", values, "--trials", "3", "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"--values must be LO:HI integers, got {values!r}" in result.output


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("text", ["2 2\n0 0\n0 0\n", "3\n0.0 -0.0 0.0\n", "2\n1e-200 0\n"],
                         ids=["int", "real", "underflow"])
@pytest.mark.parametrize("command", ["analyze", "twin"])
def test_zero_energy_input_is_a_domain_error(tmp_path, command, text):
    """C0 = sum(a^2) = 0 leaves R, M and S undefined, so nothing is scored or written."""
    (tmp_path / "zero.txt").write_text(text)
    out = tmp_path / "out"
    result = CliRunner().invoke(main, [command, str(tmp_path / "zero.txt"), "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "zero-energy input" in result.output
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_mask_ghost_is_a_domain_error(tmp_path):
    (tmp_path / "obj.txt").write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    (tmp_path / "mask.txt").write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["ghost", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"),
                                       "--out", str(out)])
    assert result.exit_code == 3, result.output
    assert "zero-energy mask" in result.output and "text output" not in result.output
    assert not out.exists()


def test_zero_mark_locate_is_a_domain_error(tmp_path):
    (tmp_path / "image.txt").write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    (tmp_path / "mark.txt").write_text("2 2\n0 0\n0 0\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["watermark", "locate", str(tmp_path / "image.txt"), str(tmp_path / "mark.txt"),
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
        result = CliRunner().invoke(main, ["generate", *argv, "--out", str(tmp_path)])
        assert result.exit_code == 0, result.output
        assert (tmp_path / expected).exists(), sorted(p.name for p in tmp_path.iterdir())


@pytest.mark.parametrize("factor", ["fibonacci_binet:a:2", "h5_family:x", "fibonacci_binet:15", "catalog"])
def test_malformed_factor_token_is_a_usage_error(tmp_path, factor):
    result = CliRunner().invoke(main, ["generate", "--family", "outer", "--factor", factor, "--out", str(tmp_path)])
    assert result.exit_code == 1, result.output
    assert f"--factor: bad factor token {factor!r}" in result.output


def test_inadmissible_factor_token_is_a_domain_error(tmp_path):
    argv = ["generate", "--family", "outer", "--factor", "fibonacci_binet:13:2", "--out", str(tmp_path)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert "4n+3" in result.output


@pytest.mark.parametrize("direction, code", [("1:x", 1), ("1", 1), ("1:2:3:4", 1), ("2:2", 3), ("0:0", 3)])
def test_project_direction_text_exits_by_whether_it_parses(tmp_path, direction, code):
    (tmp_path / "a.txt").write_text("2 2\n1 2\n3 4\n")
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["project", str(tmp_path / "a.txt"), "--dir", direction, "--out", str(out)])
    assert result.exit_code == code, result.output
    if code == 1:
        assert f"--dir: cannot parse direction {direction!r}" in result.output
    assert not out.exists()


def test_probe_spec_without_samples_names_the_key(tmp_path):
    (tmp_path / "spec.json").write_text('{"coefficients": {"3": 0.5}}')
    result = CliRunner().invoke(main, ["probe", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path)])
    assert result.exit_code == 3, result.output
    assert "probe spec has no 'samples'" in result.output


@pytest.mark.parametrize(
    "spec, code, message",
    [
        ('{"coefficients": {"3": 0.5}, "samples": 9}', 0, None),
        ('{"coefficients": [1], "samples": 9}', 3, "coefficients must map exponents to numbers"),
        ('{"coefficients": {"3": 0.5}, "samples": 9, "step": "x"}', 3, "step must be a number"),
    ],
    ids=["int-samples", "list-coefficients", "text-step"],
)
def test_probe_spec_field_types_never_reach_a_traceback(tmp_path, spec, code, message):
    (tmp_path / "spec.json").write_text(spec)
    out = tmp_path / "out"
    argv = ["probe", "--spec", str(tmp_path / "spec.json"), "--out", str(out)]
    result = CliRunner().invoke(main, argv, catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert "Traceback" not in result.output
    if message is None:
        assert json.loads((out / "probe.run.json").read_text())["arguments"]["spec"]["samples"] == [9]
    else:
        assert message in result.output
        assert not out.exists()


@pytest.mark.parametrize("kappa", ["nan", "inf", "-inf"])
def test_probe_refuses_a_non_finite_kappa(tmp_path, kappa):
    out = tmp_path / "out"
    argv = ["probe", "--coeff", "3=1/3", "--samples", "9", "--kappa", kappa, "--out", str(out)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 3, result.output
    assert "pedestal kappa must be finite and >= 0" in result.output
    assert not out.exists()


@pytest.mark.parametrize("window", ["nan:8:0.5", "-inf:8:0.5", "0:inf:1", "0:8:nan"])
def test_non_finite_airy_window_is_a_usage_error(tmp_path, window):
    out = tmp_path / "out"
    result = CliRunner().invoke(main, ["discretize", f"--airy={window}", "--out", str(out)])
    assert result.exit_code == 1, result.output
    assert f"--airy needs finite LO < HI and STEP > 0, got {window!r}" in result.output
    assert not out.exists()


def test_table1_matches_the_printed_5x5_table(tmp_path):
    """cedge and the off-peak span match exactly; R and M match the table's whole numbers to within 1.

    The table rounds some entries and truncates others (736.944 -> 737, 913.714 -> 913).  Its bits
    column follows the span convention except for 0,1,1,1,1,1: that array holds -1, 0 and 1, three
    levels, which ``span_bits`` counts as 2, while the table's 1 is the magnitude count ``metrics.bits``.
    """
    from huffkit.construct import diamond_array
    from huffkit.metrics import bits

    result = CliRunner().invoke(main, ["tables", "--table", "1", "--out", str(tmp_path)])
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
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert json.loads((tmp_path / "g.run.json").read_text())["arguments"]["kappa"] == 5.0


def test_pedestal_with_a_non_integral_kappa_writes_integers(tmp_path):
    (tmp_path / "obj.txt").write_text("3\n1 2 3\n")
    (tmp_path / "mask.txt").write_text("2\n1 -5\n")
    argv = ["pedestal", str(tmp_path / "obj.txt"), str(tmp_path / "mask.txt"), "--kappa", "5.5", "--name", "p",
            "--out", str(tmp_path)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 0, result.output
    assert (tmp_path / "p.txt").read_text() == "4\n-10 -18 -26 6\n"
