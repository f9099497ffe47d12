"""Command-line surface for construction, analysis, and the imaging demos.

Every command writes its artifacts into ``--out`` (default: ``$HUFFKIT_OUT``
or the working directory) together with a ``<name>.run.json`` provenance
record holding the resolved arguments, the library versions, and the seed —
never a timestamp, so re-running with identical flags reproduces every CSV
and JSON byte for byte (PGM renders may differ by a rounding ulp in real
mode).  The files of one run are written all or nothing: if any write fails,
the files already written by that run are removed and the command exits with
the failure's code.  Text arrays must hold finite values: ``nan``, ``inf`` or
an overflowing literal such as ``1e400`` in an input, or a non-finite result
about to be written, is a domain error (exit 3).

Exit codes: 0 success, 1 usage, 2 I/O, 3 domain (constraint violation),
4 numerical (divergence, or a correlation that fails its exactness check).

The group ``main``, the exit-code mapping and the plumbing every command
shares live in ``_cli``; the commands live in ``_cli_array``,
``_cli_continuum`` and ``_cli_imaging``, and ``main`` imports the one that
defines a command when it resolves the command's name, so a process compiles
only its own command's code.

A CLI process enters through ``run()``.  Once the command is done, it freezes
the garbage collector's heap, runs the atexit handlers, flushes stdout and
stderr, and leaves with ``os._exit`` and the command's exit code, skipping the
interpreter's teardown (about 6 ms per command).
"""

from ._cli import main, run  # the entry points

if __name__ == "__main__":
    run()
