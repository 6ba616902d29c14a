"""`python -m ummimo <experiment-id> ...` runs the `umm` experiment runner."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
