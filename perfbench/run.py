"""huffkit benchmark: closed-loop sessions of real CLI commands.

Usage (from the repository root):

    python3 perfbench/run.py --workload imaging --seed 1 --seconds 40 --trace 0

With ``--trace 0`` the run builds the workload's inputs from the seed
SETUP_REPEATS times (``setup_s`` is their median), then runs the workload's
command script as subprocesses, one after another, starting another session
only while it still fits in ``--seconds`` (at least one).  It reports the
end-to-end metrics named in BENCHMARK.json.

A run alternates timed items with runs of a fixed reference task that does
not touch huffkit (reference.py): each set-up, and each REFERENCE_EVERY
commands of a session, sit between two reference runs.  The reported times
are each wall time divided by the mean wall time of the two reference runs
around it, times REFERENCE_S: seconds on a machine where the reference task
takes REFERENCE_S.  On a shared host whose speed drifts by tens of per cent
from minute to minute this cancels the drift, which the command and the
reference feel alike.  The plain wall times are printed as well.

With ``--trace 1`` it sets up once, runs one untraced session and then one
traced session, where each command runs under ``tracecli.py`` and records
spans around the public functions of every ``huffkit`` module.  It reports
the per-layer metrics of BENCHMARK.json; ``trace.overhead_s`` is the traced
minus the untraced session time, both at reference speed.

Outputs are checked outside the timed region (see checks.py).  The CSV and
JSON bytes of every command, and in traced runs the work counts, are kept in
``.bench_work/determinism`` per seed and source version; a later run of the
same seed that reads differently is reported as nondeterminism (a failed
command for output bytes, an incorrect run for counts).  Human-readable
lines go first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS, Files

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 3
REFERENCE = BENCH / "reference.py"
REFERENCE_S = 1.0  # times are scaled to a machine where the reference task takes this long
REFERENCE_EVERY = 2  # session commands between two reference runs
RUN_BUDGET_S = 170.0  # no command may run past this point, so every run ends within 3 minutes
_STARTED = time.perf_counter()

# The fixed environment of every child command.  PYTHONDONTWRITEBYTECODE=1
# means each command compiles huffkit afresh, as it does for a user who runs
# from a source checkout with that (common CI) setting.
CHILD_ENV = {
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "LC_ALL": "C",
}


class SetupError(RuntimeError):
    """A set-up command or the reference task failed; the run cannot measure anything."""


@dataclass
class CommandRun:
    label: str
    seconds: float
    exit_code: int
    maxrss_mb: float
    cpu_s: float
    stderr: Path


@dataclass
class Session:
    directory: Path
    wall: float  # the whole session, reference runs included
    commands: list[CommandRun]
    references: list[float]  # the reference time for each command
    failures: dict[str, str] = field(default_factory=dict)  # label -> reason

    @property
    def seconds(self) -> float:
        """Wall time of the session's commands alone."""
        return sum(c.seconds for c in self.commands)


def child_env() -> dict[str, str]:
    return dict(CHILD_ENV, PATH=os.environ.get("PATH", "/usr/bin:/bin"))


def run_command(argv: list[str], cwd: Path, tag: str, label: str) -> CommandRun:
    """Run one child to completion; its resource use comes from wait4()."""
    timeout = max(1.0, RUN_BUDGET_S - (time.perf_counter() - _STARTED))
    with open(cwd / f".{tag}.out", "wb") as out, open(cwd / f".{tag}.err", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandRun(label, seconds, proc.returncode, usage.ru_maxrss / 1024.0,
                      usage.ru_utime + usage.ru_stime, cwd / f".{tag}.err")


def huffkit_argv(args, trace: Path | None = None) -> list[str]:
    if trace is None:
        return [sys.executable, "-m", "huffkit.cli", *args]
    return [sys.executable, "-X", "importtime", str(BENCH / "tracecli.py"), str(trace), *args]


def last_line(path: Path) -> str:
    lines = [ln for ln in path.read_text(errors="replace").splitlines() if not ln.startswith("import time:")]
    return lines[-1] if lines else ""


class ReferenceClock:
    """Runs the reference task between timed items of a run.

    Each ``tick`` runs it once more and returns the mean of that run and the
    one before, the reference time for the items timed in between.
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.last = self._run()

    def _run(self) -> float:
        run = run_command([sys.executable, str(REFERENCE)], self.cwd, "reference", "reference")
        if run.exit_code != 0:
            raise SetupError(f"reference task: exit {run.exit_code}: {last_line(run.stderr)}")
        return run.seconds

    def tick(self) -> float:
        before, self.last = self.last, self._run()
        return (before + self.last) / 2


def setup_inputs(wl, base: Path) -> float:
    """Build the workload's inputs into base/in; returns the wall time."""
    inputs = base / "in"
    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)

    def huffkit(cwd: Path, *args) -> None:
        run = run_command(huffkit_argv([str(a) for a in args]), cwd, "setup", "setup")
        if run.exit_code != 0:
            raise SetupError(f"huffkit {' '.join(map(str, args))}: exit {run.exit_code}: {last_line(run.stderr)}")

    start = time.perf_counter()
    wl.setup(inputs, huffkit)
    return time.perf_counter() - start


def run_session(wl, directory: Path, clock: ReferenceClock, traced: bool = False) -> Session:
    """Run the script once; the clock ticks after every REFERENCE_EVERY commands and after the last."""
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    commands, references = [], []
    start = time.perf_counter()
    for i, step in enumerate(wl.steps):
        trace = directory / f".{i:02d}.trace.json" if traced else None
        commands.append(run_command(huffkit_argv(step.argv, trace), directory, f"{i:02d}", step.label))
        if len(commands) % REFERENCE_EVERY == 0 or len(commands) == len(wl.steps):
            references += [clock.tick()] * (len(commands) - len(references))
    return Session(directory, time.perf_counter() - start, commands, references)


# ---------------------------------------------------------------------------
# correctness and determinism


def _stem(step) -> str:
    return step.argv[step.argv.index("--name") + 1]


def output_digests(wl, session: Session) -> dict[str, str]:
    """sha256 of each command's CSV/JSON outputs (run.json included)."""
    digests = {}
    for step in wl.steps:
        h = hashlib.sha256()
        for path in sorted(session.directory.glob(f"{_stem(step)}.*")):
            if path.suffix in (".csv", ".json"):
                h.update(path.name.encode() + b"\0" + path.read_bytes())
        digests[step.label] = h.hexdigest()
    return digests


def check_session(wl, session: Session, inputs: Path, reference: dict[str, str] | None) -> None:
    """Record a failure reason for each command that failed or wrote wrong output.

    Without ``reference`` every output is checked; with it, outputs must match
    the reference digests of an already checked session byte for byte.
    """
    files = Files(session.directory, inputs)
    digests = output_digests(wl, session) if reference is not None else {}
    for step, run in zip(wl.steps, session.commands):
        if run.exit_code != 0:
            session.failures[step.label] = f"exit {run.exit_code}: {last_line(run.stderr)}"
        elif reference is not None:
            if digests[step.label] != reference[step.label]:
                session.failures[step.label] = "nondeterminism: outputs differ from the first session"
        else:
            try:
                reason = step.check(files)
            except Exception as exc:  # a malformed output is a failed check
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason:
                session.failures[step.label] = reason


def source_version() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted(BENCH.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def compare_with_earlier_runs(workload: str, seed: int, record: dict[str, dict]) -> dict[str, dict[str, str]]:
    """Compare this run's digests/counts with earlier runs of the same seed.

    Returns {section: {key: message}} for every value that changed.
    """
    path = WORK / "determinism" / f"{workload}-{seed}-{source_version()}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    drift: dict[str, dict[str, str]] = {}
    for section, values in record.items():
        seen = earlier.setdefault(section, {})
        for key, value in values.items():
            if key in seen and seen[key] != value:
                drift.setdefault(section, {})[key] = f"nondeterminism: {section} {key} was {seen[key]}, now {value}"
            seen.setdefault(key, value)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(earlier, sort_keys=True, indent=1))
    return drift


# ---------------------------------------------------------------------------
# per-layer metrics from the traces


def scipy_import_seconds(stderr: Path) -> float:
    """Cumulative time of the outermost scipy imports in ``-X importtime`` output."""
    rows = []
    for line in stderr.read_text(errors="replace").splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line.split("|")
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(cumulative)))
    total_us, ancestors = 0, []
    for depth, name, cumulative in reversed(rows):  # a parent precedes its children
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(n.split(".")[0] == "scipy" for _, n in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


def layer_metrics(traced: Session, untraced: Session) -> tuple[dict[str, float], dict[str, int], set[str]]:
    """Per-layer metrics, the summed work counts, and layer functions not found."""
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    missing: set[str] = set()
    scipy_s = 0.0
    for i, run in enumerate(traced.commands):
        trace = json.loads((traced.directory / f".{i:02d}.trace.json").read_text())
        missing.update(trace["missing"])
        spans = trace["spans"]
        child_time = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent is not None:
                child_time[parent] += end - start
        for (name, start, end, _), inner in zip(spans, child_time):
            self_s[name] = self_s.get(name, 0.0) + (end - start) - inner
        for key, value in trace["counts"].items():
            counts[key] = counts.get(key, 0) + value
        scipy_s += scipy_import_seconds(run.stderr)

    m: dict[str, float] = {
        "cli.import_s": self_s.get("cli.import", 0.0),
        "cli.import.scipy_s": scipy_s,
        "cli.self_s": self_s.get("cli.command", 0.0),
        "cli.cpu_s": sum(c.cpu_s for c in untraced.commands),
        "lattice.io.read_s": self_s.get("lattice.io.read", 0.0),
        "lattice.io.write_s": self_s.get("lattice.io.write", 0.0),
        "lattice.io.bytes": counts.get("lattice.io.bytes", 0),
        "imaging.self_s": self_s.get("imaging", 0.0),
        # at reference speed, since the two sessions ran at different times
        "trace.overhead_s": sum(command_times([traced], True)) - sum(command_times([untraced], True)),
        "trace.remainder_s": traced.seconds - sum(self_s.values()),
    }
    for cls in ("int64", "bigint", "real"):
        name = f"lattice.corr.{cls}"
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        m[f"{name}.calls"] = counts.get(f"{name}.calls", 0)
        m[f"{name}.macs"] = counts.get(f"{name}.macs", 0)
    for name, count_keys in (
        ("metrics.classify", ("calls",)),
        ("construct.solve", ("solutions",)),
        ("construct.build", ()),
        ("continuum.tweak", ("iterations", "candidates")),
        ("continuum.synth", ()),
        ("project.bin", ("elements",)),
    ):
        m[f"{name}.self_s"] = self_s.get(name, 0.0)
        for key in count_keys:
            m[f"{name}.{key}"] = counts.get(f"{name}.{key}", 0)
    candidates = m["continuum.tweak.candidates"]
    m["continuum.tweak.accept_ratio"] = m["continuum.tweak.iterations"] / candidates if candidates else 0.0
    return m, counts, missing


# ---------------------------------------------------------------------------
# main


def command_times(sessions: list[Session], at_reference_speed: bool) -> list[float]:
    """Each command's time, median over the run's sessions."""
    def scale(s: Session, i: int) -> float:
        return REFERENCE_S / s.references[i] if at_reference_speed else 1.0

    return [statistics.median(s.commands[i].seconds * scale(s, i) for s in sessions)
            for i in range(len(sessions[0].commands))]


def end_to_end(sessions: list[Session], setups: list[tuple[float, float]]) -> dict[str, float]:
    """The end-to-end metrics; every time is in seconds at reference speed.

    A session is the sum of the per-command times and the median command
    is their median.
    """
    per_command = command_times(sessions, True)
    return {
        "session_s": sum(per_command),
        "cmd_p50_s": statistics.median(per_command),
        "setup_s": statistics.median(wall / reference for wall, reference in setups) * REFERENCE_S,
        "peak_rss_mb": max(c.maxrss_mb for s in sessions for c in s.commands),
    }


def raw_wall(sessions: list[Session], setups: list[tuple[float, float]]) -> dict[str, float]:
    """The same metrics in plain wall seconds, and the median reference run."""
    per_command = command_times(sessions, False)
    return {
        "session_wall_s": sum(per_command),
        "cmd_p50_wall_s": statistics.median(per_command),
        "setup_wall_s": statistics.median(wall for wall, _ in setups),
        "reference_wall_s": statistics.median(r for s in sessions for r in s.references),
    }


def describe(args, sessions: list[Session], setups: list[tuple[float, float]]) -> None:
    versions = {name: metadata.version(name) for name in ("numpy", "scipy", "click")}
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}  "
          + "  ".join(f"{k} {v}" for k, v in versions.items()))
    print("child env: " + " ".join(f"{k}={v}" for k, v in sorted(child_env().items()) if k != "PATH")
          + " PATH=<inherited>")
    print(f"reference task: {REFERENCE.name}, scaled to {REFERENCE_S} s")
    print("set-up runs (s): " + " ".join(f"{w:.4f} (reference {r:.4f})" for w, r in setups))
    for s in sessions:
        print(f"session {s.directory.name}: {s.seconds:.4f} s of commands, {s.wall:.4f} s with reference runs")
        for i, c in enumerate(s.commands):
            status = s.failures.get(c.label, "ok")
            print(f"  {c.label:<20} {c.seconds:9.4f} s  reference {s.references[i]:7.4f} s  rss {c.maxrss_mb:7.1f} MB  "
                  f"cpu {c.cpu_s:8.4f} s  {status}")


def print_metrics(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<32} {value:>20.6f} {units.get(name, '')}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "huffkit" / "cli.py").is_file():
        print(f"no huffkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](args.seed, ROOT)
    base = WORK / wl.name
    shutil.rmtree(base, ignore_errors=True)

    try:
        base.mkdir(parents=True)
        clock = ReferenceClock(base)
        setups = []
        for _ in range(1 if args.trace else SETUP_REPEATS):
            wall = setup_inputs(wl, base)
            setups.append((wall, clock.tick()))
        start = time.perf_counter()
        sessions = [run_session(wl, base / "s0", clock)]
        if args.trace:
            sessions.append(run_session(wl, base / "traced", clock, traced=True))
        else:
            while True:
                typical = statistics.median(s.wall for s in sessions)
                elapsed = time.perf_counter() - start
                spent = time.perf_counter() - _STARTED
                if elapsed + typical > args.seconds or spent + 2 * typical > RUN_BUDGET_S:
                    break
                sessions.append(run_session(wl, base / f"s{len(sessions)}", clock))
    except SetupError as exc:
        print(f"cannot measure: {exc}", file=sys.stderr)
        return 3

    check_session(wl, sessions[0], base / "in", None)
    reference = output_digests(wl, sessions[0])
    for s in sessions[1:]:
        check_session(wl, s, base / "in", reference)
        for label in sessions[0].failures:
            s.failures.setdefault(label, "same output as the failed first session")

    record = {"outputs": reference}
    layers = None
    if args.trace:
        layers, record["counts"], missing = layer_metrics(sessions[1], sessions[0])
    drift = compare_with_earlier_runs(wl.name, args.seed, record)
    for label, message in drift.get("outputs", {}).items():
        sessions[0].failures.setdefault(label, message)

    describe(args, sessions, setups)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    e2e = end_to_end(sessions[:1] if args.trace else sessions, setups)
    attempted = sum(len(s.commands) for s in sessions)
    failed = sum(len(s.failures) for s in sessions)
    e2e_all = dict(e2e, fail_ratio=failed / attempted, **raw_wall(sessions[:1] if args.trace else sessions, setups))
    print_metrics("end-to-end" + (" (untraced session)" if args.trace else ""), e2e_all,
                  dict(units, fail_ratio="ratio", session_wall_s="s", cmd_p50_wall_s="s", setup_wall_s="s",
                       reference_wall_s="s"))
    if layers is not None:
        print_metrics("per-layer (traced session)", layers, units)
        n = len(wl.steps)
        print(f"per command: import {layers['cli.import_s'] / n:.4f} s (scipy {layers['cli.import.scipy_s'] / n:.4f} s), "
              f"remainder {layers['trace.remainder_s'] / n:.4f} s over {n} commands")
        if missing:
            print("layer functions not found, so not traced: " + ", ".join(sorted(missing)))
    for message in drift.get("counts", {}).values():
        print(message)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = layers if args.trace else e2e
    result = {
        "correct": failed == 0 and "counts" not in drift,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
