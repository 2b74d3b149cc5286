"""The `bentkit` program: `python -m bentkit` and the installed script."""

import contextlib
import os
import sys
from typing import NoReturn


def main() -> int:
    # bentkit makes no BLAS call, but loading NumPy starts OpenBLAS's
    # thread pool, whose idle helper spins; one thread is the program's
    # default, and a value the user exported wins.  Importing the library
    # (bentkit, bentkit.cli) leaves the environment alone.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from .cli import main as cli_main

    return cli_main()


def run() -> NoReturn:
    """Run the program and end the process at its last flush.

    Interpreter teardown, mostly full garbage-collector passes over the
    objects the NumPy import leaves, took 20–30 ms of each run on a
    2-vCPU VM, so the process ends with `os._exit`, which skips it and
    any `atexit` handler.  `bentkit.cli.main` has flushed stdout already
    and reported a failure to write it; a failed flush keeps its data
    buffered, so failing again here is not reported twice.  An exception
    that escapes `main` takes the normal exit, with its traceback.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
