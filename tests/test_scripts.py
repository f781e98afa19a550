import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_decay_rate_sweep_fits_every_rate():
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "decay_rate_sweep.py")], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stdout + done.stderr
