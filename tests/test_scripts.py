import importlib.util
import math
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
    with proc.stderr:
        err = proc.stderr.read().decode()
    assert proc.wait(timeout=120) == 1, err
    assert header.startswith(b"n,")
    assert "Traceback" not in err and "Exception ignored" not in err, err


def _full_lattice_ks(n: int) -> float:
    """KS distance of the cycle-count law kept to all n + 1 terms, the
    O(n^2) product the scan truncates."""
    law = [1.0]
    for i in range(1, n + 1):
        law = [a * (i - 1) / i + b / i for a, b in zip(law + [0.0], [0.0] + law)]
    center = math.log(n)
    scale = math.sqrt(2 * center)
    below = dist = 0.0
    for m, mass in enumerate(law):
        f = 0.5 * (1.0 + math.erf((m - center) / scale))
        dist = max(dist, abs(below - f), abs(below + mass - f))
        below += mass
    return dist


def test_truncated_lattice_law_matches_the_full_law():
    spec = importlib.util.spec_from_file_location(
        "cycle_count_ks_scan", os.path.join(SCRIPTS, "cycle_count_ks_scan.py"))
    scan = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scan)
    assert abs(scan.exact_lattice_ks(2000) - _full_lattice_ks(2000)) < 1e-12
