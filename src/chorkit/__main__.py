"""``python -m chorkit``: the command line interface of ``chorkit.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
