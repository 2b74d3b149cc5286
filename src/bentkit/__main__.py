"""The `bentkit` program: `python -m bentkit` and the installed script."""

import os
import sys


def main() -> int:
    # bentkit makes no BLAS call, but loading NumPy starts OpenBLAS's
    # thread pool, whose idle helper spins; one thread is the program's
    # default, and a value the user exported wins.  Importing the library
    # (bentkit, bentkit.cli) leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


if __name__ == "__main__":
    sys.exit(main())
