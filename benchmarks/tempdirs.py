"""Temp directories a benchmark run makes, removed once the run passes.

``mkdtemp(prefix)`` wraps :func:`tempfile.mkdtemp` and remembers the
path. ``run(main)`` calls the script's ``main`` and then deletes every
remembered directory if it returned 0; otherwise (a failed gate or an
exception) it keeps them and prints their paths for inspection::

    if __name__ == "__main__":
        sys.exit(tempdirs.run(main))
"""

from __future__ import annotations

import shutil
import sys
import tempfile

_made: list = []


def mkdtemp(prefix: str) -> str:
    path = tempfile.mkdtemp(prefix=prefix)
    _made.append(path)
    return path


def run(main) -> int:
    code = 1
    try:
        code = main()
    finally:
        for path in _made:
            if code == 0:
                shutil.rmtree(path, ignore_errors=True)
            else:
                print(f"kept temp dir {path}", file=sys.stderr)
        _made.clear()
    return code
