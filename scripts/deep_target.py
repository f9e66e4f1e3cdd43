#!/usr/bin/env python3
"""Time one deep germ written to a file: ``kuranishi L_n --target gl:3
--json FILE``.

L_n is the filiform algebra [e1, e_i] = e_{i+1} (i = 2..n-1), with unit
constants, built by ``germbench/inputs.py``.  Its series is deep (nu = n - 1)
and its germ file large: about 19 MB for L8 and 58 MB for L9, most of it
the obstruction records.  The run is one child process, so the import is
timed with it and the peak RSS is the child's alone (``ru_maxrss`` from
``os.wait4``).  The script prints two lines:

    L8 x gl3: wall <seconds> s, cpu <seconds> s, peak <MB> MB
    L8 x gl3 sha256 <the germ file's sha256>

The second line does not depend on the host; ``scripts/deep_target.expected``
holds it for n = 8, and CI (Python 3.11) checks it as

    python scripts/deep_target.py 8 | tail -1 | diff - scripts/deep_target.expected

The first line is a single run on whatever host runs it: compare such
numbers only between alternating runs on one host.  cpu is the child's
user plus system time.  Unix only (``os.wait4``).

    python3 scripts/deep_target.py [n]      (default n = 8)
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_inputs():
    """germbench/inputs.py, imported from its file without touching it."""
    spec = importlib.util.spec_from_file_location(
        "germbench_inputs", ROOT / "germbench" / "inputs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    with tempfile.TemporaryDirectory() as scratch:
        algebra, germ = pathlib.Path(scratch) / f"L{n}.json", pathlib.Path(scratch) / "germ.json"
        algebra.write_text(json.dumps(_load_inputs().filiform(n, None)))
        argv = [sys.executable, "-m", "germkit", "kuranishi", str(algebra),
                "--target", "gl:3", "--json", str(germ)]
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        start = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(child.pid, 0)
        wall = time.perf_counter() - start
        child.returncode = os.waitstatus_to_exitcode(status)
        if child.returncode != 0:
            sys.exit(f"kuranishi L{n} --target gl:3 exited with {child.returncode}")
        digest = hashlib.sha256(germ.read_bytes()).hexdigest()
    # ru_maxrss is in KiB on Linux.
    cpu = usage.ru_utime + usage.ru_stime
    print(f"L{n} x gl3: wall {wall:.2f} s, cpu {cpu:.2f} s, peak {usage.ru_maxrss / 1024:.1f} MB")
    print(f"L{n} x gl3 sha256 {digest}")


if __name__ == "__main__":
    main()
