"""Command-line interface: ``repro <subcommand>`` / ``python -m repro.cli``.

* ``repro experiments`` — regenerate the paper's tables and figures;
* ``repro memcached``   — an interactive memcached (ASCII protocol) REPL
  running on a HICAMP machine;
* ``repro demo``        — a quick tour of the architecture's behaviours.
"""

import importlib

__all__ = ["main"]


def _main(argv=None) -> int:
    """Run the CLI. :mod:`repro.cli.main` loads on first call, not with
    the package: ``python -m repro.cli.main`` imports the package first,
    and an eager import here made runpy load that module twice."""
    run = importlib.import_module("repro.cli.main").main
    globals()["main"] = _main  # the submodule just bound itself over it
    return run(argv)


main = _main
