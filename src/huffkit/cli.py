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

Exit codes: 0 success, 1 usage, 2 I/O, 3 domain (constraint violation, or
an input or window too large for the memory the process may allocate),
4 numerical (divergence, or a correlation that fails its exactness check).

Command lines are parsed with the standard library's argparse, by these rules:
an option's value is always the next word, even one that starts with ``-``
(``--airy -40:8:0.5``, ``--seed -1``), and ``--opt=value`` is the same as
``--opt value``; options are never abbreviated; help is ``--help`` only.  Any
other word that starts with ``-`` (``--iter``, ``-h``) is a usage error, ``No
such option '<word>'``.

``main``, the exit-code mapping and the plumbing every command shares live
in ``_cli``; the commands live in ``_cli_array``, ``_cli_continuum`` and
``_cli_imaging``, and ``main`` imports the one that defines a command when it
reads the command's name and builds only that command's parser, so a process
compiles only its own command's code.

A CLI process enters through ``run()``.  Once the command is done, it freezes
the garbage collector's heap, runs the atexit handlers, flushes stdout and
stderr, and leaves with ``os._exit`` and the command's exit code, skipping the
interpreter's teardown (about 6 ms per command).
"""

from ._cli import main, run  # the entry points

if __name__ == "__main__":
    run()
