import os
import subprocess
import sys

import pytest

import snchar

SRC = os.path.dirname(os.path.dirname(snchar.__file__))
SCRIPTS = os.path.join(os.path.dirname(SRC), "scripts")


# Each command writes well over a pipe's 64 KiB, so it is still writing
# when the reader goes away, however the two processes are scheduled.
@pytest.mark.parametrize("argv", [
    ["bound_sweep.py", "--n-min", "5", "--n-max", "3000", "--exact-max", "0"],
    ["cycle_count_ks_scan.py", "--samples", "20", "--n", *["20"] * 4000],
], ids=["bound_sweep", "cycle_count_ks_scan"])
def test_closed_pipe_exits_quietly(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SNCHAR_CAP", None)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    header = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1, err
    assert header.startswith(b"n,")
    assert "Traceback" not in err and "Exception ignored" not in err, err
