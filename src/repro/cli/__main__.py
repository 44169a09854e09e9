"""``python -m repro.cli <subcommand>``."""

import sys

from repro.cli.main import main

if __name__ == "__main__":
    sys.exit(main())
