"""Process entry point of ``python -m cvswap`` and the ``cvswap`` console script.

Once :func:`cvswap.cli.main` returns, nothing the process made is needed, so
:func:`run` calls ``gc.freeze()``: every live object moves into the permanent
generation, and the interpreter's final collections skip numpy's and cvswap's
object graph.  Output flushing, ``atexit`` handlers and module finalization
still run.  ``main`` itself never touches the collector, because tests, the
benchmark and library code call it in-process.
"""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the command line and exit with its code."""
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
