"""Every narrative demo still runs to completion against the current API and
prints exactly the bytes it printed when its digest was recorded."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# sha256 of each demo's stdout; every demo is deterministic
STDOUT_SHA256 = {
    "adversary_gallery.py": "f97471fd33c65505e38aac62ab106cbd1fc9e09d54cc87d39f05bfcb3e146c7b",
    "codebook_tools.py": "8dc1dbd56167f0d84c34bddfa56b7ee5f70388fbb17dd936abf10721e15352cc",
    "noise_margin.py": "095d7da09ba7f23247bc5db1848151232ad603ef190f3deee5f789682f78b7b1",
    "session_walkthrough.py": "3e94ee529c0a4a7907a2b1640118458897dfb9b955ff393f6a6e885f3c959af1",
    "survival_statistics.py": "e7c06836d905963b8c621e0e605f09b8620a8615c3a293a14bc6ead69ea9296b",
}


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_cleanly(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, timeout=300
    )
    assert result.returncode == 0, result.stderr[-2000:].decode(errors="replace")
    assert hashlib.sha256(result.stdout).hexdigest() == STDOUT_SHA256[demo.name]
