"""The `mz` process: `python -m mzspaces` and the `mz` console script.

One call answers one question and exits, so the process runs without the
cyclic garbage collector and leaves by `os._exit`, skipping interpreter
teardown.  Both are safe here: the CLI writes only stdout and stderr, which
are flushed before the exit, registers no `atexit` handler, starts no thread,
creates no temporary file, and the library builds no reference cycles
(`tests/test_one_shot.py` gates both).  `cli.main` stays a plain library call
that touches neither the collector nor the exit.
"""

import gc
import os
import sys


def run():
    """Run `cli.main` on sys.argv and end the process with its exit code."""
    gc.disable()
    from .cli import main

    try:
        code = main()
    except SystemExit as exc:  # usage errors and --help
        code = exc.code
    # A stream is None when the process started with its fd closed.
    if sys.stdout is not None:
        sys.stdout.flush()
    if sys.stderr is not None:
        try:
            sys.stderr.flush()
        except OSError:  # fd 2 closed by the shell and reopened read-only by a launcher
            pass
    os._exit(code)


if __name__ == "__main__":
    run()
