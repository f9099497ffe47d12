"""The benchmark's workloads: seeded inputs plus a fixed script of CLI commands.

A workload is one closed-loop session: one client runs its commands one
after another as subprocesses, each waiting for the previous one.  Inputs
are built from the seed before the session starts (objects written here,
masks and probes by ``huffkit generate`` / ``huffkit probe``) into ``in/``;
each command runs in its own session directory and names its inputs by the
same relative paths on every run, so the ``run.json`` records it writes are
byte-comparable across runs of one seed.

Why these two:

* ``imaging`` -- encode/decode/deblur/pedestal on a 192x192 object with a
  31x31 outer-product mask, ghost on a 96x96 object, plus a noise study:
  big int64, bigint and real correlations and large text I/O.  The sizes
  keep a session near 13 s of commands, so that a 40 s run holds two.
* ``design`` -- the exact-integer search: a 63x63 bigint analysis, a twin,
  the 7x7 solver table, Airy and 2D probe tweaking and the random baseline;
  thousands of tiny correlations and no real-mode imaging.  Sizes keep a
  session near 10 s of commands, as in ``imaging``.

Together they call every layer.  Imaging's correlations are few and large,
design's many and tiny, so a correlation change tuned for one is checked on
the other; the layers only design calls (metrics, construct, continuum)
should leave imaging unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import checks

INPUTS = "../in"  # how session commands name the set-up directory


class Files:
    """Read-once view of a session's outputs and the set-up inputs."""

    def __init__(self, out: Path, inp: Path):
        self.out_dir, self.in_dir = out, inp
        self._cache: dict[Path, object] = {}

    def _load(self, path: Path):
        if path not in self._cache:
            self._cache[path] = checks.read_json(path) if path.suffix == ".json" else checks.read_array(path)
        return self._cache[path]

    def out(self, name: str):
        return self._load(self.out_dir / name)

    def inp(self, name: str):
        return self._load(self.in_dir / name)


@dataclass(frozen=True)
class Step:
    label: str
    argv: tuple[str, ...]  # huffkit arguments
    check: Callable[[Files], str | None]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[Path, Callable[..., None]], None]  # (in_dir, huffkit)
    steps: tuple[Step, ...]


def _step(label: str, *argv, check) -> Step:
    return Step(label, tuple(str(a) for a in argv), check)


# ---------------------------------------------------------------------------
# imaging


def imaging(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    obj, ghost_obj, small = (rng.integers(0, 256, (n, n)) for n in (192, 96, 64))
    noise_seed = int(rng.integers(0, 2**31))
    mask = f"{INPUTS}/mask31.txt"

    def setup(d: Path, huffkit) -> None:
        checks.write_pgm(obj, d / "obj192.pgm")
        checks.write_pgm(ghost_obj, d / "obj96.pgm")
        checks.write_pgm(small, d / "obj64.pgm")
        huffkit(d, "generate", "--family", "outer", "--factor", "fibonacci_binet:31:2",
                "--factor", "fibonacci_binet:31:2", "--name", "mask31")

    steps = (
        _step("encode", "encode", f"{INPUTS}/obj192.pgm", mask, "--name", "enc",
              check=lambda f: checks.check_encode(f.out("enc.txt"), f.inp("obj192.pgm"), f.inp("mask31.txt"),
                                                  np.random.default_rng([seed, 2]))),
        _step("decode", "decode", "enc.txt", mask, "--name", "dec",
              check=lambda f: checks.check_decode(f.out("dec.txt"), f.out("dec.run.json"), f.out("enc.txt"),
                                                  f.inp("mask31.txt"))),
        _step("deblur", "deblur", "enc.txt", mask, "-p", 4, "--name", "deb",
              check=lambda f: checks.check_deblur(f.out("deb.txt"), f.out("deb.run.json"), f.inp("obj192.pgm"), 4)),
        _step("pedestal", "pedestal", f"{INPUTS}/obj192.pgm", mask, "--name", "ped",
              check=lambda f: checks.check_pedestal(f.out("ped.txt"), f.out("enc.txt"))),
        _step("ghost", "ghost", f"{INPUTS}/obj96.pgm", mask, "--name", "ghost",
              check=lambda f: checks.check_ghost(f.out("ghost.bucket.txt"), f.out("ghost.txt"), f.out("ghost.run.json"),
                                                 f.inp("obj96.pgm"), f.inp("mask31.txt"),
                                                 np.random.default_rng([seed, 3]))),
        _step("noise-study", "noise-study", f"{INPUTS}/obj64.pgm", mask, "--trials", 6, "--seed", noise_seed,
              "--name", "noise",
              check=lambda f: checks.check_noise(f.out("noise.json"), f.inp("mask31.txt"))),
    )
    return Workload("imaging", setup, steps)


# ---------------------------------------------------------------------------
# design


def design(seed: int, root: Path) -> Workload:
    rng = np.random.default_rng([seed, 3])
    phase = (Fraction(1, 4), Fraction(3, 10), Fraction(1, 3), Fraction(2, 5))[int(rng.integers(0, 4))]
    baseline_seed = int(rng.integers(0, 2**31))

    def setup(d: Path, huffkit) -> None:
        for n in (63, 47):
            huffkit(d, "generate", "--family", "fibonacci", "-N", n, "--name", f"fib{n}")
            u = checks.read_array(d / f"fib{n}.txt")
            checks.write_text(np.multiply.outer(u, u), d / f"fib{n}x{n}.txt")
        huffkit(d, "probe", "--coeff", f"3,0={phase}", "--coeff", f"0,3={phase}",
                "--samples", "31,31", "--name", "probe31")

    def discretized(name: str, source, bits: int):
        return lambda f: checks.check_discretize(f.out(f"{name}.txt"), f.out(f"{name}.report.json"), source(f), bits)

    def airy_samples(f: Files):
        from scipy.special import airy

        x = np.arange(-40.0, 8.0 + 0.25, 0.5)
        return airy(x)[0]

    steps = (
        _step("analyze", "analyze", f"{INPUTS}/fib63x63.txt", "--name", "analyze63",
              check=lambda f: checks.check_outer_report(f.out("analyze63.report.json"), f.inp("fib63.txt"))),
        _step("twin", "twin", f"{INPUTS}/fib47x47.txt", "--name", "twin47",
              check=lambda f: checks.check_twin(f.out("twin47.txt"), f.inp("fib47x47.txt"),
                                                f.out("twin47.report.json"), factor=f.inp("fib47.txt"))),
        _step("tables", "tables", "--table", 2, "--name", "table2",
              check=lambda f: checks.check_table2(f.out_dir / "table2.csv", root / "tests/data/table_7x7_e3.csv")),
        _step("discretize-airy", "discretize", "--airy", "-40:8:0.5", "--name", "airy",
              check=discretized("airy", airy_samples, 7)),
        _step("discretize-probe", "discretize", f"{INPUTS}/probe31.txt", "--bits", 5, "--max-iters", 10,
              "--name", "probe31",
              check=discretized("probe31", lambda f: f.inp("probe31.txt"), 5)),
        _step("baseline", "baseline", "--trials", 3000, "--seed", baseline_seed, "--dump-values", "--name", "baseline",
              check=lambda f: checks.check_baseline(f.out("baseline.json"), f.out_dir / "baseline.csv",
                                                    baseline_seed, (5, 5), -12, 14, np.random.default_rng([seed, 4]))),
    )
    return Workload("design", setup, steps)


WORKLOADS = {"imaging": imaging, "design": design}
