"""Where the benchmark lives and where it may write.

The runner reads and writes only inside its checkout: ``out/`` (named
in ``.gitignore``) holds traces, reports, per-run temp dirs and — via
``TMPDIR`` — the compiled-kernel cache that ``repro.kernels.backend``
builds from source on first import.
"""

from __future__ import annotations

import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(OUT, "tmp")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_DIGESTS = os.path.join(HERE, "expected_digests.json")


def prepare():
    """Put ``src/`` on ``sys.path`` and ``TMPDIR`` inside the checkout.

    Must run before the first ``import repro`` (the kernel backend
    picks its build directory from ``tempfile.gettempdir()`` at import).
    Exits with status 2 where there is no program to measure.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"benchmark: no program under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    os.makedirs(TMP, exist_ok=True)
    os.environ["TMPDIR"] = TMP
    tempfile.tempdir = None  # re-read TMPDIR
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def child_env():
    """Environment for the daemon process: same source tree, same TMPDIR.

    The hash seed is pinned so that set/dict iteration orders inside the
    daemon — and with them its timings — do not re-roll on every spawn.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["TMPDIR"] = TMP
    env["PYTHONHASHSEED"] = "0"
    return env
