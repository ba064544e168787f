"""``python -m unispan``: the command-line interface of :mod:`unispan.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
