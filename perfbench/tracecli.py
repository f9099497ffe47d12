"""Run one ``huffkit`` CLI command with per-layer spans recorded.

Usage: python3 perfbench/tracecli.py TRACE_JSON HUFFKIT_ARGS...

Before ``huffkit.cli.main`` runs, every module's copy of the public layer
functions listed in LAYERS is rebound to a wrapper that records a span
(name, start, end, parent) and the layer's work counts.  Spans and counts
stay in memory and are written to TRACE_JSON once, when the command ends.
Nothing under ``src/huffkit`` is changed.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

INT64_MAX = 2**63 - 1

# module -> {public function: span name}
LAYERS = {
    "lattice": {
        "correlate": "lattice.corr", "convolve": "lattice.corr",
        "read_text": "lattice.io.read", "read_pgm": "lattice.io.read",
        "write_text": "lattice.io.write", "write_pgm": "lattice.io.write",
    },
    "metrics": {"classify": "metrics.classify"},
    "construct": {
        "diamond5_solve": "construct.solve", "diamond7_solve": "construct.solve",
        "build": "construct.build", "build_diamond": "construct.build",
    },
    "continuum": {
        "discretize_and_tweak": "continuum.tweak",
        "synthesize_probe": "continuum.synth", "airy": "continuum.synth",
        "verify_delta_correlation": "continuum.synth",
    },
    "project": {"project": "project.bin", "project3": "project.bin", "twin": "project.bin"},
    "imaging": {
        name: "imaging"
        for name in ("encode", "decode", "deblur", "pedestal_pair", "ghost_image", "watermark_embed",
                     "watermark_locate", "random_baseline", "multiplex_noise_study")
    },
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def span(self, name: str, fn, *args, **kwargs):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else None])
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx][1:3] = start, end

    def dump(self, path: str, exit_code: int, missing: list[str]) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "exit_code": exit_code,
                       "missing": missing}, fh)


def _operand(x):
    """(mode, ndarray) of a correlation operand, as lattice.as_tensor would see it."""
    import numpy as np

    if hasattr(x, "mode"):  # a huffkit Tensor
        return x.mode, x.data
    data = np.asarray(x)
    ints = data.dtype.kind in "iu" or (
        data.dtype == object and all(isinstance(v, (int, np.integer)) for v in data.flat))
    return ("int" if ints else "real"), data


def _max_abs(data) -> int:
    if data.dtype == object:
        return max(abs(int(v)) for v in data.flat)
    return int(abs(data).max())


def correlation_class(a, b) -> tuple[str, int]:
    """Operand class (int64 / bigint / real) and multiply-adds Na*Nb.

    bigint means an object operand or a worst-case accumulator
    min(size) * max|a| * max|b| beyond int64, whatever path the engine takes.
    """
    (ma, da), (mb, db) = _operand(a), _operand(b)
    if ma == "int" and mb == "int":
        big = (da.dtype == object or db.dtype == object
               or min(da.size, db.size) * _max_abs(da) * _max_abs(db) > INT64_MAX)
        cls = "bigint" if big else "int64"
    else:
        cls = "real"
    return cls, da.size * db.size


def _wrapper(rec: Recorder, span: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if span == "lattice.corr":
            cls, macs = correlation_class(args[0], args[1])
            name = f"lattice.corr.{cls}"
            rec.count(f"{name}.calls", 1)
            rec.count(f"{name}.macs", macs)
            return rec.span(name, fn, *args, **kwargs)
        if span == "lattice.io.read":
            rec.count("lattice.io.bytes", os.path.getsize(args[0]))
            return rec.span(span, fn, *args, **kwargs)
        result = rec.span(span, fn, *args, **kwargs)
        if span == "lattice.io.write":
            rec.count("lattice.io.bytes", os.path.getsize(args[1]))
        elif span == "metrics.classify":
            rec.count("metrics.classify.calls", 1)
        elif span == "construct.solve":
            rec.count("construct.solve.solutions", len(result))
        elif span == "continuum.tweak":
            rec.count("continuum.tweak.iterations", result.iterations)
            rec.count("continuum.tweak.candidates", 2 * result.tensor.size * (result.iterations + 1))
        elif span == "project.bin":
            rec.count("project.bin.elements", _operand(args[0])[1].size)
        return result

    return traced


def install(rec: Recorder) -> list[str]:
    """Rebind every module's reference to each layer function to its wrapper.

    Returns the listed functions the package no longer has, so a refactor
    that drops one shows up in the report instead of failing the command.
    """
    modules = [m for name, m in sys.modules.items() if name == "huffkit" or name.startswith("huffkit.")]
    missing = []
    for owner, functions in LAYERS.items():
        source = sys.modules.get(f"huffkit.{owner}")
        for fname, span in functions.items():
            original = getattr(source, fname, None)
            if original is None:
                missing.append(f"huffkit.{owner}.{fname}")
                continue
            wrapped = _wrapper(rec, span, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)
    return missing


def main(argv: list[str]) -> int:
    trace_path, args = argv[0], argv[1:]
    rec = Recorder()
    missing: list[str] = []
    code = 1  # an unhandled exception propagates with this code in the trace
    try:
        cli = rec.span("cli.import", __import__, "huffkit.cli", fromlist=["main"])
        missing = install(rec)
        rec.span("cli.command", cli.main, args, prog_name="huffkit")
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        rec.dump(trace_path, code, missing)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
