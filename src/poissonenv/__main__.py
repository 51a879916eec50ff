"""``python -m poissonenv``: the command-line interface, ``cli.main``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
