"""The package root: ``import dscp`` loads only ``dscp.core``."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

NOT_LOADED = ("dscp.cli", "dscp.online", "dscp.offline", "dscp.adversary",
              "numpy", "subprocess", "select", "argparse", "csv", "json",
              "hashlib", "shlex")


def test_import_dscp_loads_only_core():
    code = ("import sys, dscp, dscp.core\n"
            "assert dscp.count_covers is dscp.core.count_covers\n"
            f"print(' '.join(m for m in {NOT_LOADED!r} if m in sys.modules))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
