"""``python -m ergoqueue``: the same command line as the ``ergoqueue`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
