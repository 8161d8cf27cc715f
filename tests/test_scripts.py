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


# Each case writes only its header row, a few bytes, so the first write
# fails at the final flush of the exit path, not inside the script's loop.
@pytest.mark.parametrize("argv", [
    ["bound_sweep.py", "--n-min", "5", "--n-max", "6", "--exact-max", "0"],
    ["cycle_count_ks_scan.py", "--samples", "20", "--n", "20"],
], ids=["bound_sweep", "cycle_count_ks_scan"])
def test_pre_closed_pipe_exits_quietly(argv):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SNCHAR_CAP", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, argv[0]), *argv[1:]],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    assert "Exception ignored" not in done.stderr, done.stderr


# The scripts exit through snchar.cli.main, on the CLI's contract: 3 for a
# cap refusal and 2 for bad input, each with one "error:" line on stderr.
# -X dev shows a ResourceWarning for an --out file left open on the way.
@pytest.mark.parametrize("argv,code,err", [
    (["bound_sweep.py", "--n-min", "29", "--n-max", "30", "--exact-max", "30"], 3,
     "error: a table for n=29 needs p_n^2 = 20839225 entries (exceeds cap 10000000)\n"),
    (["cycle_count_ks_scan.py", "--n", "1"], 2, "error: n must be >= 2\n"),
    (["cycle_count_ks_scan.py", "--n", "20", "--samples", "0"], 2,
     "error: samples must be >= 1\n"),
], ids=["bound_sweep-cap", "cycle_count_ks_scan-n", "cycle_count_ks_scan-samples"])
def test_bad_input_exits_on_the_cli_contract(argv, code, err, tmp_path):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("SNCHAR_CAP", None)
    out = tmp_path / "out.csv"
    done = subprocess.run(
        [sys.executable, "-X", "dev", os.path.join(SCRIPTS, argv[0]), *argv[1:],
         "--out", str(out)],
        capture_output=True, env=env, text=True, timeout=120,
    )
    assert done.returncode == code, done.stderr
    assert done.stderr == err
    assert out.read_text().startswith("n,")


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
