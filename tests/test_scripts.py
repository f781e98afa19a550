import re
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_decay_rate_sweep_fits_every_rate():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "decay_rate_sweep.py")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr


def test_output_digests_lists_every_output():
    # 44 outputs (the files and stdout of 14 runs), 14 exit codes, all 0, and the 4 arrays of each of 4 coupling runs.
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "output_digests.py")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    exits = [line for line in lines if line.endswith("/exit")]
    digests = [line for line in lines if not line.endswith("/exit")]
    assert len(exits) == 14 and all(re.fullmatch(r"0  [a-z_]+/exit", line) for line in exits), exits
    assert len(digests) == 60
    assert all(re.fullmatch(r"[0-9a-f]{64}  [a-z_]+/[a-zA-Z_.]+", line) for line in digests), digests
