"""CLI exit codes, run-record versions and start-up imports."""

import json
import os
import subprocess
import sys
import warnings
from importlib import metadata
from pathlib import Path

import pytest
from click.testing import CliRunner

from huffkit import lattice
from huffkit.cli import main

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


def test_run_record_reads_click_version_without_deprecation(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = CliRunner().invoke(
            main, ["generate", "--family", "h5", "--n", "1", "--name", "h5", "--out", str(tmp_path)]
        )
    assert result.exit_code == 0, result.output
    record = json.loads((tmp_path / "h5.run.json").read_text())
    assert record["versions"]["click"] == metadata.version("click")


@pytest.mark.parametrize("module", ["scipy.signal", "scipy"])
def test_cli_import_does_not_load_scipy(module):
    code = f"import sys, huffkit.cli; sys.exit(int({module!r} in sys.modules))"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


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
