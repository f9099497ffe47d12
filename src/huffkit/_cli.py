"""The CLI's group, exit-code mapping and shared plumbing; see ``huffkit.cli``."""

import atexit
import gc
import json
import math
import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__, _collector_paused
from .lattice import Tensor, read_pgm, read_text, write_pgm, write_text

with _collector_paused():
    import click

_EXIT_USAGE = 1
_EXIT_IO = 2
_EXIT_DOMAIN = 3
_EXIT_NUMERICAL = 4


class DivergenceError(RuntimeError):
    """An iteration diverged; maps to exit code 4."""


# command -> the module that defines it, imported when the name is resolved
_COMMANDS = {
    **dict.fromkeys("generate analyze project twin tables".split(), "_cli_array"),
    **dict.fromkeys("probe discretize".split(), "_cli_continuum"),
    **dict.fromkeys("encode decode deblur pedestal ghost watermark baseline noise-study".split(), "_cli_imaging"),
}


class _Group(click.Group):
    """Group whose commands load on first use and whose main() maps exceptions onto the exit-code taxonomy."""

    def list_commands(self, ctx):  # noqa: D102 - click override
        return sorted(_COMMANDS)

    def get_command(self, ctx, name):  # noqa: D102 - click override
        if name in _COMMANDS:
            with _collector_paused():
                __import__(f"huffkit.{_COMMANDS[name]}")
        return super().get_command(ctx, name)

    def main(self, *args, **kwargs):  # noqa: D102 - click override
        kwargs.setdefault("standalone_mode", False)
        try:
            return super().main(*args, **kwargs)  # click returns --help's exit code itself
        except click.Abort:
            click.echo("aborted", err=True)
            sys.exit(_EXIT_USAGE)
        except click.ClickException as exc:  # includes UsageError
            click.echo(f"usage error: {exc.format_message()}", err=True)
            sys.exit(_EXIT_USAGE)
        except (DivergenceError, ArithmeticError) as exc:
            click.echo(f"numerical error: {exc}", err=True)
            sys.exit(_EXIT_NUMERICAL)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(_EXIT_IO)
        except (ValueError, KeyError) as exc:  # all module domain errors
            click.echo(f"domain error: {exc}", err=True)
            sys.exit(_EXIT_DOMAIN)


@click.group(cls=_Group)
def main() -> None:
    """Delta-correlated arrays: construct, score, project, image."""


def _read_tensor(path: str) -> Tensor:
    p = Path(path)
    if not p.exists():
        raise FileNotFoundError(f"no such file: {p}")
    return read_pgm(p) if p.suffix.lower() == ".pgm" else read_text(p)


def _plot_pgm(t: Tensor, path: Path) -> None:
    """Grey-scale render; 1D data becomes a one-pixel-high strip."""
    arr = np.asarray(t.data, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[np.newaxis, :]
    write_pgm(Tensor(arr, "real"), path)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _artefact_options(command):
    """The ``--name``/``--out`` pair every artefact-writing command takes."""
    command = click.option("--out", help="Output directory (default $HUFFKIT_OUT or cwd).")(command)
    return click.option("--name", help="Output file stem.")(command)


def _finish(name: str | None, out: str | None, stem: str, arguments: dict, artefacts: dict,
            seed: int | None = None, results: dict | None = None) -> list[str]:
    """Write a run's artefacts, then its ``<stem>.run.json``; all or nothing.

    ``artefacts`` maps file suffix to payload in writing order: a Tensor is
    written as text, or rendered when the suffix ends in ``.pgm``; a dict is
    written as JSON, a str as is, and None is skipped.  ``name`` (the
    ``--name`` option) overrides the default ``stem``.  If any write fails,
    every file this call began writing is removed and the error re-raised.
    Returns the artefact file names in writing order.

    The record's ``package`` holds ``huffkit.__version__`` and its
    ``versions`` hold ``np.__version__`` and ``platform.python_version()``,
    the two versions a run's numbers depend on; click's parse is pinned by
    the resolved ``arguments``.
    """
    stem = name or stem
    base = Path(out) if out else Path(os.environ.get("HUFFKIT_OUT", "."))
    base.mkdir(parents=True, exist_ok=True)
    payloads = {stem + suffix: payload for suffix, payload in artefacts.items() if payload is not None}
    ctx, words = click.get_current_context(), []
    while ctx.parent is not None:  # the root's info_name is the program name
        words.insert(0, ctx.info_name)
        ctx = ctx.parent
    record = {
        "command": " ".join(words),
        "arguments": arguments,
        "files": sorted(payloads),
        "seed": seed,
        "package": {"name": "huffkit", "version": __version__},
        "versions": {"numpy": np.__version__, "python": platform.python_version()},
    }
    if results is not None:
        record["results"] = results
    payloads[f"{stem}.run.json"] = record
    started = []
    try:
        for fname, payload in payloads.items():
            path = base / fname
            started.append(path)
            if isinstance(payload, Tensor):
                (_plot_pgm if fname.endswith(".pgm") else write_text)(payload, path)
            else:
                path.write_text(_json_text(payload) if isinstance(payload, dict) else payload)
    except BaseException:
        for path in started:
            path.unlink(missing_ok=True)
        raise
    return list(payloads)[:-1]


def _report_payload(report) -> dict:
    return json.loads(report.to_json())


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.split(","))
    except ValueError:
        raise click.UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_finite(text: str, rule: str) -> float:
    """``text`` as a finite float; anything else is a usage error quoting ``rule``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the non-finite values
    if not math.isfinite(value):
        raise click.UsageError(f"{rule}, got {text!r}")
    return value


def _given(*names: str) -> list[click.Parameter]:
    """The parameters in ``names`` whose option the command line gave, at any value (by click's parameter source)."""
    ctx, source = click.get_current_context(), click.core.ParameterSource.COMMANDLINE
    return [p for p in ctx.command.params if p.name in names and ctx.get_parameter_source(p.name) is source]


def _refuse_given(rule: str, *names: str) -> None:
    """Usage error ``<flag> <rule>`` if the command line gave the option of any parameter in ``names``."""
    if given := _given(*names):
        raise click.UsageError(f"{given[0].opts[0]} {rule}")


def run():
    """Process entry: run ``main()``, then leave with its exit code and without the interpreter's teardown."""
    try:
        code = main()
    except SystemExit as exc:  # main() exits with an int code
        code = exc.code
    gc.freeze()  # collections in atexit handlers skip the objects the imports left tracked
    atexit._run_exitfuncs()
    for stream in (sys.stdout, sys.stderr):
        try:
            stream.flush()
        except (OSError, ValueError):  # a closed pipe or stream, which the interpreter reports with exit 120
            code = 120
    os._exit(code or 0)

