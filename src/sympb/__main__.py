"""``python -m sympb``: the same command line as the ``sympb`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
