"""Every pinned output of the CLI, checked byte for byte by SHA-256.

tests/pins.json lists the pinned commands in the order they run. Each
entry holds an argv, its exit code, the SHA-256 of its stdout and, where
it writes an --output file, the SHA-256 of that file; "seconds" bounds its
run time and "note" says what it pins. Every entry runs through cli.run in
one shared directory, so a group entry reads the file that an earlier
export-group entry wrote. Monte Carlo runs fork their workers as the
installed command does.
"""

import hashlib
import json
import time
from pathlib import Path

import pytest

from snchar import cli

TESTS = Path(__file__).resolve().parent
PINS = json.loads((TESTS / "pins.json").read_text(encoding="utf-8"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("pins")


@pytest.mark.parametrize("pin", PINS, ids=[" ".join(p["argv"]) for p in PINS])
def test_pinned_output(pin, workdir, capsys, monkeypatch):
    monkeypatch.chdir(workdir)
    monkeypatch.delenv("SNCHAR_CAP", raising=False)
    argv = pin["argv"]
    if argv[0] == "group" and not (workdir / argv[1]).exists():
        # run alone: first the entry that writes its input file
        cli.run(next(p["argv"] for p in PINS if p["argv"][-2:] == ["--output", argv[1]]))
        capsys.readouterr()
    start = time.perf_counter()
    code = cli.run(argv)
    elapsed = time.perf_counter() - start
    assert code == pin["exit"]
    assert _sha256(capsys.readouterr().out.encode()) == pin["stdout"]
    if "file" in pin:
        path = workdir / argv[argv.index("--output") + 1]
        assert _sha256(path.read_bytes()) == pin["file"]
    assert elapsed < pin.get("seconds", float("inf"))


def test_perfbench_digests_are_pinned():
    # the benchmark checks its outputs against perfbench/expected.json,
    # which is read here and never written
    path = TESTS.parent / "perfbench" / "expected.json"
    expected = json.loads(path.read_text(encoding="utf-8"))["digests"]
    pins = {" ".join(p["argv"]): p for p in PINS}
    for cmd, digest in expected.items():
        assert cmd in pins, cmd
        pin = pins[cmd]
        assert pin["exit"] == 0, cmd
        assert {k: pin.get(k) for k in ("stdout", "file")} == {
            "stdout": digest["stdout"], "file": digest.get("file")}, cmd
