"""The CLI's argparse front end, exit-code mapping and shared plumbing; see ``huffkit.cli``."""

import argparse
import atexit
import contextvars
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

_EXIT_USAGE = 1
_EXIT_IO = 2
_EXIT_DOMAIN = 3
_EXIT_NUMERICAL = 4


class UsageError(Exception):
    """A command line that does not parse, or gives an option the run does not read; maps to exit code 1."""


class DivergenceError(RuntimeError):
    """An iteration diverged; maps to exit code 4."""


# command -> the module that defines it, imported when the name is read
_COMMANDS = {
    **dict.fromkeys("generate analyze project twin tables".split(), "_cli_array"),
    **dict.fromkeys("probe discretize".split(), "_cli_continuum"),
    **dict.fromkeys("encode decode deblur pedestal ghost baseline noise-study".split(), "_cli_imaging"),
}
_REGISTRY = {}  # command name -> function, filled by the command modules as they import

# (command name, the arguments its command line gave, --name, --out) of the command running in this context
_CALL = contextvars.ContextVar("huffkit_cli_call")


def command(name=None):
    """Register the decorated function as command ``name`` (default: its own name)."""
    def register(fn):
        _REGISTRY[name or fn.__name__] = fn
        return fn
    return register


def option(*names, **kwargs):
    """Declare an ``add_argument`` of the decorated command; declarations read top-down.

    A default other than None or an empty list is shown in the help as ``[default: <value>]``.
    """
    if kwargs.get("default") not in (None, []):
        kwargs["help"] = f"{kwargs.get('help', '')}  [default: {kwargs['default']}]".lstrip()

    def declare(fn):
        fn.arguments = [(names, kwargs), *getattr(fn, "arguments", [])]
        return fn
    return declare


def at_least(low: int):
    """argparse type: an int no smaller than ``low``."""
    def convert(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is not in the range x>={low}")
        return value
    convert.__name__ = "int"  # argparse names the type in "invalid int value"
    return convert


def _plain_name(text: str) -> str:
    """argparse type of ``--name``: a file name that stays in ``--out``."""
    if text in ("", ".", "..") or os.path.basename(text) != text:
        raise argparse.ArgumentTypeError(f"must be a plain file name, not '', '.', '..' or a path, got {text!r}")
    return text


# where every command writes, declared after the command's own options; _finish reads it
_LOCATION = [(("--name",), {"type": _plain_name, "help": "Output file stem."}),
             (("--out",), {"help": "Output directory (default $HUFFKIT_OUT or cwd)."})]


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: D102 - argparse override: raise, so that main() maps it to exit 1
        raise UsageError(message)


def _summary(fn) -> str:
    return fn.__doc__.strip().split("\n")[0]


def _help(prog: str) -> str:
    """The top-level help in argparse's layout, listing every command under ``Commands:``."""
    width = max(map(len, _REGISTRY))
    listing = "".join(f"\n  {name:<{width}}  {_summary(fn)}" for name, fn in sorted(_REGISTRY.items()))
    return (f"usage: {prog} [--help] COMMAND [ARGS]...\n\n{_summary(main)}\n\n"
            f"options:\n  --help  show this help message and exit\n\nCommands:{listing}\n")


def _run_command(prog: str, name: str, argv: list[str]):
    """Parse ``argv`` with the parser command ``name`` declares and call it; print the help instead on ``--help``.

    Each option is joined to its value as ``--long-name=value`` before argparse reads it, so that the value is
    always the next word (or what follows ``=``), even one that starts with ``-``.
    """
    fn = _REGISTRY[name]
    parser = _Parser(prog=prog, description=fn.__doc__, add_help=False, allow_abbrev=False)
    flags = {"--help": parser.add_argument("--help", action="help", help="show this help message and exit")}
    declared = [parser.add_argument(*names, **kwargs) for names, kwargs in [*fn.arguments, *_LOCATION]]
    flags.update((flag, action) for action in declared for flag in action.option_strings)
    args, given, rest = [], set(), iter(argv)
    for word in rest:
        if word == "--":
            args += [word, *rest]
        elif word[:1] != "-" or word == "-":
            args.append(word)
        else:
            flag, eq, value = word.partition("=")
            action = flags.get(flag)
            if action is None:
                raise UsageError(f"No such option '{flag}'.")
            if flag == "--help":
                parser.print_help()
                return 0
            if action.nargs != 0:
                if not eq and (value := next(rest, None)) is None:
                    raise UsageError(f"Option '{flag}' requires an argument.")
                word = f"{action.option_strings[0]}={value}"
            given.add(action)
            args.append(word)
    namespace = vars(parser.parse_args(args))
    given = [action for action in declared if action in given]
    token = _CALL.set((name, given, namespace.pop("name"), namespace.pop("out")))
    try:
        return fn(**namespace)
    finally:
        _CALL.reset(token)


def _dispatch(prog: str, argv: list[str]):
    """Run the command that ``argv`` names, importing only the module that defines it; or list every command."""
    if not argv or argv[0] == "--help":
        with _collector_paused():
            for module in sorted(set(_COMMANDS.values())):
                __import__(f"huffkit.{module}")
        text = _help(prog)
        if not argv:
            raise UsageError(text.rstrip("\n"))
        print(text, end="")
        return 0
    name = argv[0]
    if name.startswith("-"):
        raise UsageError(f"No such option '{name.partition('=')[0]}'.")
    if name not in _COMMANDS:
        raise UsageError(f"No such command '{name}'.")
    with _collector_paused():
        __import__(f"huffkit.{_COMMANDS[name]}")
    return _run_command(f"{prog} {name}", name, argv[1:])


def main(argv=None, prog_name=None):
    """Delta-correlated arrays: construct, score, project, image.

    Runs one command line (default ``sys.argv[1:]``): returns once the command succeeds, and on a failure prints
    its message and raises ``SystemExit`` with the failure's exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(prog_name or "huffkit", argv)
    except KeyboardInterrupt:
        _fail(_EXIT_USAGE, "aborted")
    except UsageError as exc:
        _fail(_EXIT_USAGE, f"usage error: {exc}")
    except (DivergenceError, ArithmeticError) as exc:
        _fail(_EXIT_NUMERICAL, f"numerical error: {exc}")
    except MemoryError as exc:  # too large an input or window for this machine
        name = argv[0] if argv else ""
        _fail(_EXIT_DOMAIN, f"domain error: {name} ran out of memory" + (f": {exc}" if str(exc) else ""))
    except OSError as exc:
        _fail(_EXIT_IO, f"i/o error: {exc}")
    except (ValueError, KeyError) as exc:  # all module domain errors
        _fail(_EXIT_DOMAIN, f"domain error: {exc}")


def _fail(code: int, message: str):
    print(message, file=sys.stderr)
    sys.exit(code)


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


def _finish(stem: str, arguments: dict, artefacts: dict, seed: int | None = None,
            results: dict | None = None) -> list[str]:
    """Write a run's artefacts, then its ``<stem>.run.json``; all or nothing.

    ``artefacts`` maps file suffix to payload in writing order: a Tensor is
    written as text, or rendered when the suffix ends in ``.pgm``; a dict is
    written as JSON, a str as is, and None is skipped.  The files go into
    the running command's ``--out`` and ``--name`` overrides the default
    ``stem``; the front end declares both for every command and parses them
    into ``_CALL``, which this reads.  If any write fails, every file this
    call began writing is removed and the error re-raised.  Returns the
    artefact file names in writing order.

    The record's ``package`` holds ``huffkit.__version__`` and its
    ``versions`` hold ``np.__version__`` and ``platform.python_version()``,
    the two versions a run's numbers depend on; the parse is pinned by the
    resolved ``arguments``.
    """
    cmd, _, name, out = _CALL.get()
    stem = name or stem
    base = Path(out) if out else Path(os.environ.get("HUFFKIT_OUT", "."))
    base.mkdir(parents=True, exist_ok=True)
    payloads = {stem + suffix: payload for suffix, payload in artefacts.items() if payload is not None}
    record = {
        "command": cmd,
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
        raise UsageError(f"{what} must be comma-separated integers, got {text!r}")


def _parse_finite(text: str, rule: str) -> float:
    """``text`` as a finite float; anything else is a usage error quoting ``rule``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # refused below, with the non-finite values
    if not math.isfinite(value):
        raise UsageError(f"{rule}, got {text!r}")
    return value


def _given(*names: str) -> list[argparse.Action]:
    """The arguments with a ``dest`` in ``names`` whose option the command line gave, at any value, in their order."""
    return [action for action in _CALL.get()[1] if action.dest in names]


def _refuse_given(rule: str, *names: str) -> None:
    """Usage error ``<flag> <rule>`` if the command line gave the option of any parameter in ``names``."""
    if given := _given(*names):
        raise UsageError(f"{given[0].option_strings[0]} {rule}")


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

