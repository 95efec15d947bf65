"""Process entry point of ``python -m cvswap``: exit with the code of
:func:`cvswap.cli.main`.  Importing :mod:`cvswap.cli` freezes the heap.
"""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
