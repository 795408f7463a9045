"""``python -m rhesis``: the command line, as the ``rhesis`` script runs it."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
