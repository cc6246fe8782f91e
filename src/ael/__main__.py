"""``python -m ael``: the same command line as the ``ael`` console script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
