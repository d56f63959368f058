"""The simulator's import graph leaves numpy out.

Every cache on every trace path is the dict core, so numpy is needed
only by the unreached vectorized core (``repro.memory.npcache``), its
tests and the repository benchmark. Importing it anyway costs every
process start (the CLI, the server, each sweep worker) its import time
and memory.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_entry_points_do_not_import_numpy():
    code = ("import sys; sys.path.insert(0, 'src');"
            "import repro.api, repro.__main__, repro.server.app;"
            "print(sorted(m for m in sys.modules"
            " if m == 'numpy' or m.startswith('numpy.')))")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, cwd=ROOT,
        env={"PATH": "/usr/bin:/bin", "PYTHONDONTWRITEBYTECODE": "1"})
    assert out.stdout.strip() == "[]"
