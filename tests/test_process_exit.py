"""The CLI as a real process: launchers, exit codes, files, and the exit through run()."""

import gc
import json
import os
import re
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import invoke

ROOT = Path(__file__).resolve().parents[1]
# without PYTHONUNBUFFERED, so that stdout through a pipe is block-buffered as in a user's shell
ENV = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}
ENV["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])


def _python(cwd, *args):
    return subprocess.run([sys.executable, *args], cwd=cwd, env=ENV, capture_output=True, text=True, timeout=120)


def _cli(cwd, *argv):
    proc = _python(cwd, "-m", "huffkit.cli", *argv)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc


def test_installed_script_enters_through_run():
    text = (ROOT / "pyproject.toml").read_text()
    entry = re.search(r'^huffkit\s*=\s*"([^"]*)"', text, re.MULTILINE)
    assert entry is not None and entry.group(1) == "huffkit.cli:run"


def test_generate_process_prints_json_and_writes_its_files(tmp_path):
    proc = _cli(tmp_path, "generate", "--family", "h5", "--n", "1", "--name", "h5", "--out", "out")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["class"] == "canonical"
    for suffix in (".txt", ".report.json", ".run.json"):
        assert (tmp_path / "out" / f"h5{suffix}").is_file()


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["generate", "--family", "nope"], 1, "usage error"),
        (["analyze", "missing.txt"], 2, "i/o error"),
    ],
    ids=["usage", "io"],
)
def test_failing_process_exits_with_its_code(tmp_path, argv, code, message):
    proc = _cli(tmp_path, *argv, "--out", "out")
    assert proc.returncode == code, proc.stderr
    assert proc.stderr.startswith(message)


def test_zero_mask_decode_process_exits_domain_and_writes_nothing(tmp_path):
    (tmp_path / "blurred.txt").write_text("3 3\n1 2 3\n4 5 6\n7 8 9\n")
    (tmp_path / "zero.txt").write_text("2 2\n0 0\n0 0\n")
    (tmp_path / "out").mkdir()
    proc = _cli(tmp_path, "decode", "blurred.txt", "zero.txt", "--plot", "--name", "zdec", "--out", "out")
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error")
    assert not list((tmp_path / "out").glob("zdec*"))


def test_numerical_failure_process_exits_4_without_a_warning_or_files(tmp_path):
    proc = _cli(tmp_path, "discretize", "--airy", "-10:4:0.5", "--bits", "31", "--out", "out")
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("numerical error") and "RuntimeWarning" not in proc.stderr
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_out_of_memory_process_exits_3_without_a_traceback_or_files(tmp_path):
    """A window of 8e9 samples cannot be allocated under a 2 GiB address-space limit set in the child only."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    argv = [sys.executable, "-m", "huffkit.cli", "discretize", "--airy", "-4:4:1e-9", "--out", "out"]
    env = dict(ENV, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")  # per-thread BLAS buffers count against the limit
    proc = subprocess.run(argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, preexec_fn=limit)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("domain error: discretize ran out of memory") and "Traceback" not in proc.stderr
    assert not (tmp_path / "out").exists() or not list((tmp_path / "out").iterdir())


def test_last_stdout_line_arrives_whole_through_a_pipe(tmp_path):
    proc = _cli(tmp_path, "tables", "--table", "1", "--out", "out")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.endswith("\n") and proc.stdout.splitlines()[-1] == "8 rows -> table1.csv"


def test_help_process_lists_every_command(tmp_path):
    proc = _cli(tmp_path, "--help")
    assert proc.returncode == 0, proc.stderr
    listed = re.findall(r"^  (\S+)", proc.stdout.split("Commands:")[1], re.MULTILINE)
    assert listed == ["analyze", "baseline", "deblur", "decode", "discretize", "encode", "generate", "ghost",
                      "noise-study", "pedestal", "probe", "project", "tables", "twin"]


def test_in_process_invoke_leaves_the_heap_unfrozen(tmp_path):
    before = gc.get_freeze_count()
    result = invoke(["generate", "--family", "h5", "--n", "1", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert gc.get_freeze_count() == before


@pytest.mark.parametrize(
    "entry",
    ["from huffkit.cli import run; run()", "import runpy; runpy.run_module('huffkit.cli', run_name='__main__')"],
    ids=["run", "main-block"],
)
def test_process_entry_freezes_the_heap_before_exit(tmp_path, entry):
    code = (
        "import atexit, gc, sys\n"
        "atexit.register(lambda: print('at exit', gc.get_freeze_count()))\n"
        "print('before', gc.get_freeze_count())\n"
        "sys.argv = ['huffkit', 'generate', '--family', 'h5', '--n', '1', '--out', 'out']\n"
        f"{entry}\n"
    )
    proc = _python(tmp_path, "-c", code)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "before 0"
    label, count = lines[-1].rsplit(" ", 1)
    assert label == "at exit" and int(count) > 0
