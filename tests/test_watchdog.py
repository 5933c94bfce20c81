"""The suite's watchdog: pyproject.toml sets pytest's faulthandler_timeout
with faulthandler_exit_on_timeout, so a hung test ends the run and the
dumped stacks name it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_hung_test_ends_the_run_and_is_named(tmp_path):
    """A test sleeping past a 1 s limit, run under this repo's config with
    only the limit overridden, exits nonzero well before its sleep ends, and
    stderr names the test function.  Without exit_on_timeout the child would
    sleep 60 s and the 20 s timeout here would fail the test."""
    (tmp_path / "test_hang.py").write_text(
        "import time\n\n\ndef test_sleeps_forever():\n    time.sleep(60)\n"
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
            "-c", str(PYPROJECT), "-o", "faulthandler_timeout=1",
            str(tmp_path / "test_hang.py"),
        ],
        capture_output=True, text=True, cwd=tmp_path, timeout=20,
    )
    assert proc.returncode != 0
    assert "test_sleeps_forever" in proc.stderr
