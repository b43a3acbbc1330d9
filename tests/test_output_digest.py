"""scripts/output_digest.py, the byte-parity check of fixed-seed outputs,
still runs on this tree and lists every output it documents.

It runs the script once in a subprocess (a few seconds).
"""

import hashlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "output_digest.py"

# The count README states.
OUTPUTS = 92

EMPTY = hashlib.sha256(b"").hexdigest()


def test_digest_lists_every_output():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, env=env, timeout=600
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.splitlines()
    assert len(lines) == OUTPUTS
    parsed = [re.fullmatch(r"([0-9a-f]{64})  (\S.*)", line) for line in lines]
    assert all(parsed), [line for line, m in zip(lines, parsed) if not m]
    paths = [m.group(2) for m in parsed]
    assert len(set(paths)) == OUTPUTS
    assert [p for p, m in zip(paths, parsed) if m.group(1) == EMPTY] == []
