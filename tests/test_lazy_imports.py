"""``import repro`` stays light: networkx and scipy load only on demand.

Both are needed by a handful of interop and analysis helpers
(``from_networkx``/``to_networkx``; scipy only in the test
oracles), and
together they about double the package's import time and resident
memory.  The subprocess gives a clean ``sys.modules``; the helpers
themselves are tested in ``tests/networks``.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"

HEAVY = ("networkx", "scipy")


def test_importing_the_package_loads_no_heavy_dependency():
    probe = (
        "import sys\n"
        "import repro, repro.check, repro.runtime\n"
        f"print(','.join(m for m in {HEAVY!r} if m in sys.modules))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout.strip()
    assert out == "", f"imported eagerly: {out}"

