"""Reference worker: runs the frozen shiftcert in ``reference/`` on request.

    python3 perfbench/refworker.py

Started by ``run.py`` as a child process. It imports the snapshot in
``perfbench/reference/shiftcert`` (never ``src/``), then reads one JSON
request per line on stdin and answers each with one JSON line on stdout:

- ``{"argv": [...]}`` -> ``{"rc": <exit code>, "elapsed": <s>}``: one call of
  the reference ``shiftcert.cli.main``, timed like the benchmark times the
  program, its output discarded;
- ``{"setup": true}`` -> ``{"elapsed": <s>}``: one fresh interpreter
  importing the reference ``shiftcert`` and ``shiftcert.cli``.

It exits when stdin closes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference"


def main() -> int:
    sys.path.insert(0, str(REFERENCE))
    from shiftcert.cli import main as cli_main

    reply = sys.stdout
    setup_env = dict(os.environ, PYTHONPATH=str(REFERENCE))
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("setup"):
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import shiftcert, shiftcert.cli"], env=setup_env, check=True)
            answer = {"elapsed": time.perf_counter() - start}
        else:
            out, err = io.StringIO(), io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli_main(request["argv"])
            except Exception:
                rc = None
            answer = {"rc": rc, "elapsed": time.perf_counter() - start}
        reply.write(json.dumps(answer) + "\n")
        reply.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
