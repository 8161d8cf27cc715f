import json
import os
import pkgutil
import subprocess
import sys

import pytest

import snchar
from snchar import cli
from snchar import sampling as sp
from snchar import vanishing as vn
from snchar.table_stats import series_csv, stats_series


def run_ok(capsys, *argv):
    code = cli.run(list(argv))
    out = capsys.readouterr().out
    assert code == 0, out
    return out


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate", "3"]) == 2

    def test_unknown_flag(self, capsys):
        assert cli.run(["pzero", "3", "--wat"]) == 2

    def test_bad_f(self, capsys):
        assert cli.run(["bound", "6", "--f", "cubic"]) == 2

    @pytest.mark.parametrize("argv", [
        ["bound", "12", "--C", "inf"],
        ["bound", "12", "--f", "inf"],
        ["bound", "12", "--C", "1e308", "--no-exact"],
        ["bound", "12", "--f", "nan"],
    ])
    def test_non_finite_threshold(self, capsys, argv):
        assert cli.run(argv) == 2
        assert "not finite" in capsys.readouterr().err

    def test_bad_samples(self, capsys):
        assert cli.run(["mc-pzero", "3", "--samples", "0"]) == 2

    def test_unsupported_format(self, capsys):
        assert cli.run(["pzero", "3", "--format", "csv"]) == 2

    def test_missing_file(self, capsys):
        assert cli.run(["group", "/no/such/file.json"]) == 2

    def test_cap_exceeded(self, capsys):
        assert cli.run(["pzero", "100", "--cap", "50"]) == 3
        err = capsys.readouterr().err
        assert "p_n^2" in err

    def test_cap_exceeded_table(self, capsys):
        assert cli.run(["table", "80"]) == 3

    @pytest.mark.parametrize("argv", [
        ["table", "10"],
        ["pzero", "10"],
        ["bound", "10"],
        ["table-stats", "3", "10"],
        ["export-group", "10"],
    ])
    def test_cap_counts_table_entries(self, capsys, argv):
        # p_10 = 42 fits a cap of 100, but the 42^2 = 1764 entries do not
        assert cli.run(argv + ["--cap", "100"]) == 3
        captured = capsys.readouterr()
        assert "p_n^2 = 1764" in captured.err
        assert captured.out == ""

    def test_mc_pzero_counting_table_cap(self, capsys, monkeypatch):
        # the ranking table of n = 5000 has 12,507,501 entries, over the
        # default cap: refused before any of it is built
        assert cli.run(["mc-pzero", "5000", "--samples", "1"]) == 3
        assert "12507501 entries" in capsys.readouterr().err
        monkeypatch.setenv("SNCHAR_CAP", "1000")
        assert cli.run(["mc-pzero", "100", "--samples", "1"]) == 3
        assert "5151 entries" in capsys.readouterr().err
        assert cli.run(["mc-pzero", "100", "--samples", "1", "--cap", "5151"]) == 0

    @pytest.mark.parametrize("value", ["abc", "0", "-1"])
    def test_bad_env_cap(self, capsys, monkeypatch, value):
        # validated like --cap, and the message names the variable
        monkeypatch.setenv("SNCHAR_CAP", value)
        assert cli.run(["pzero", "5"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: SNCHAR_CAP must be an integer >= 1, got {value!r}\n"
        assert captured.out == ""

    def test_unwritable_output(self, capsys, tmp_path):
        path = str(tmp_path / "no" / "such" / "dir" / "x.csv")
        assert cli.run(["table", "8", "--output", path]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: cannot write")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_bound_without_exact_needs_no_cap(self, capsys):
        # p_300 = 9253082936723602 is far above the cap; nothing is enumerated
        assert cli.run(["bound", "300", "--no-exact", "--cap", "10"]) == 0

    def test_help(self, capsys):
        assert cli.run(["--help"]) == 0

    def test_no_args(self, capsys):
        assert cli.run([]) == 2


class TestReports:
    def test_bound_prints_integers_past_the_digit_limit(self, capsys):
        # at n = 4000 the lower bound's denominator has 4586 digits, past
        # the interpreter's default int-to-str limit of 4300
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        out = run_ok(capsys, "bound", "4000", "--no-exact")
        line = next(l for l in out.splitlines() if l.startswith("lower bound"))
        frac, dec = line.split(" = ")[1].split()
        assert len(frac.split("/")[1]) > 4300
        assert dec == f"({float(vn.lemma_bound(4000).lower_bound):.15g})"
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit

    def test_pzero_text(self, capsys):
        out = run_ok(capsys, "pzero", "3")
        assert "1/6" in out

    def test_pzero_json(self, capsys):
        doc = json.loads(run_ok(capsys, "pzero", "5", "--format", "json"))
        assert doc["p"] == {"num": "109", "den": "420"}
        assert doc["config"]["subcommand"] == "pzero"
        assert doc["config"]["n"] == 5

    def test_bound_text_vacuous(self, capsys):
        out = run_ok(capsys, "bound", "3", "--C", "100")
        assert "lower bound Q_n - R_n = 0" in out
        assert "exact P_n = 1/6" in out
        assert "OK" in out

    def test_bound_json_schema(self, capsys):
        doc = json.loads(run_ok(capsys, "bound", "8", "--format", "json"))
        b = doc["bound"]
        assert set(b) >= {"n", "p_n", "q_n", "r_n", "lower_bound", "exact_p"}
        assert b["n"] == 8
        assert doc["config"]["c"] is not None

    def test_bound_no_exact(self, capsys):
        doc = json.loads(
            run_ok(capsys, "bound", "8", "--no-exact", "--format", "json")
        )
        assert doc["bound"]["exact_p"] is None

    def test_bound_strict_and_const_f(self, capsys):
        out = run_ok(capsys, "bound", "10", "--f", "1.5", "--strict",
                     "--no-exact")
        assert "lower bound" in out

    def test_table_csv(self, capsys):
        out = run_ok(capsys, "table", "3")
        assert out == (
            "shape,3,2-1,1-1-1\n3,1,1,1\n2-1,-1,0,2\n1-1-1,1,-1,1\n"
        )

    def test_table_text(self, capsys):
        out = run_ok(capsys, "table", "2", "--format", "text")
        assert "shape" in out and "1-1" in out

    def test_table_json(self, capsys):
        doc = json.loads(run_ok(capsys, "table", "4", "--format", "json"))
        assert doc["table"]["n"] == 4
        assert len(doc["table"]["values"]) == 5

    def test_table_stats_csv_matches_module(self, capsys):
        out = run_ok(capsys, "table-stats", "1", "3", "--format", "csv")
        assert out == series_csv(stats_series(1, 3))
        assert len(out.strip().split("\n")) == 4

    def test_table_stats_text(self, capsys):
        out = run_ok(capsys, "table-stats", "3", "3", "--format", "text")
        assert "zeros 1" in out

    def test_mc_pzero_json(self, capsys):
        doc = json.loads(run_ok(
            capsys, "mc-pzero", "4", "--samples", "500", "--format", "json"
        ))
        assert doc["summary"]["samples"] == 500
        assert doc["summary"]["seed"] == sp.DEFAULT_SEED
        assert 0 <= doc["summary"]["estimate"] <= 1

    def test_goncharov_text_and_csv(self, capsys):
        out = run_ok(capsys, "goncharov", "20", "--samples", "100")
        assert "KS distance" in out
        csv = run_ok(capsys, "goncharov", "20", "--samples", "100",
                     "--format", "csv")
        lines = csv.strip().split("\n")
        assert lines[0] == "normalized_value"
        assert len(lines) == 101
        float(lines[1])

    def test_long_cycle_json(self, capsys):
        doc = json.loads(run_ok(
            capsys, "long-cycle", "30", "--samples", "400", "--format", "json"
        ))
        assert doc["summary"]["statistic"] == "long_cycle"

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        run_ok(capsys, "table", "3", "--output", str(target))
        assert target.read_text().startswith("shape,3,2-1,1-1-1")


class TestGroupPath:
    def test_export_then_analyze(self, tmp_path, capsys):
        path = tmp_path / "s3.json"
        run_ok(capsys, "export-group", "3", "--output", str(path))
        doc = json.loads(path.read_text())
        assert doc["order"] == "6"
        out = run_ok(capsys, "group", str(path), "--exhaustive-omega")
        assert "Q = 5/6" in out
        assert "R = 2/3" in out
        assert "lower bound Q - R = 1/6" in out
        assert "exact P = 1/6" in out
        assert "default attains it: True" in out

    def test_group_json(self, tmp_path, capsys):
        path = tmp_path / "s4.json"
        run_ok(capsys, "export-group", "4", "--output", str(path))
        doc = json.loads(run_ok(
            capsys, "group", str(path), "--exhaustive-omega", "--format", "json"
        ))
        assert doc["report"]["q"] == {"num": "5", "den": "6"}
        assert doc["omega_check"]["default_is_max"] is True

    def test_invalid_group_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"group":"g","order":"6","classes":['
                        '{"name":"a","size":"5"},{"name":"b","size":"1"}]}')
        assert cli.run(["group", str(path)]) == 2


class TestDeterminism:
    def test_mc_pzero_byte_identical(self, capsys):
        a = run_ok(capsys, "mc-pzero", "5", "--samples", "800",
                   "--seed", "11", "--format", "json")
        b = run_ok(capsys, "mc-pzero", "5", "--samples", "800",
                   "--seed", "11", "--format", "json")
        assert a == b

    def test_goncharov_csv_byte_identical(self, capsys):
        args = ["goncharov", "50", "--samples", "300", "--seed", "9",
                "--format", "csv"]
        assert run_ok(capsys, *args) == run_ok(capsys, *args)

    def test_seed_changes_output(self, capsys):
        a = run_ok(capsys, "mc-pzero", "5", "--samples", "800",
                   "--seed", "1", "--format", "json")
        b = run_ok(capsys, "mc-pzero", "5", "--samples", "800",
                   "--seed", "2", "--format", "json")
        assert a != b


# Exact stdout of seeded sampler runs, recorded with the former scanning
# unrank. A change to the rank order or the draw order shows here.
_MC_PZERO_100_JSON = """\
{
  "config": {
    "subcommand": "mc-pzero",
    "n": 100,
    "n_min": null,
    "n_max": null,
    "samples": 2000,
    "seed": 5,
    "c": null,
    "f_mode": null,
    "f_const": null,
    "strict": null,
    "exact": null,
    "fmt": "json",
    "output": null,
    "cap": null,
    "threads": 1,
    "input_file": null,
    "exhaustive_omega": null
  },
  "summary": {
    "estimate": 0.9915,
    "samples": 2000,
    "std_error": 0.0020527725154044657,
    "seed": 5,
    "n": 100,
    "zeros": 1983,
    "statistic": "pzero"
  }
}
"""

_PINNED_SAMPLER_RUNS = [
    (["mc-pzero", "100", "--samples", "2000", "--seed", "5", "--format", "json"],
     _MC_PZERO_100_JSON),
    (["mc-pzero", "20", "--samples", "3000", "--seed", "5"],
     'P_20 estimate = 0.7846666666666666 +/- 0.0075047737893709785 (3000 samples, seed 5)\n'),
    (["long-cycle", "60", "--samples", "2000", "--seed", "5"],
     'freq(cycle >= n/(2 log n)) at n=60: 1.0 +/- 0.0 (2000 samples, seed 5)\n'),
]


@pytest.mark.parametrize("argv,want", _PINNED_SAMPLER_RUNS,
                         ids=["mc-pzero-100-json", "mc-pzero-20", "long-cycle-60"])
def test_seeded_sampler_output_is_pinned(capsys, argv, want):
    assert run_ok(capsys, *argv) == want


_GONCHAROV_200 = ("cycle counts at n=200: 500 samples, seed 5\n"
                  "KS distance to limit law = 0.1743625808702598\n")

# the sampling commands, pinned above, need nothing outside the standard
# library: numpy set to None in sys.modules makes any import of it fail
_SAMPLING_WITHOUT_NUMPY = _PINNED_SAMPLER_RUNS + [
    (["goncharov", "200", "--samples", "500", "--seed", "5"], _GONCHAROV_200),
]


@pytest.mark.parametrize("argv,want", _SAMPLING_WITHOUT_NUMPY,
                         ids=["mc-pzero-100-json", "mc-pzero-20", "long-cycle-60",
                              "goncharov-200"])
def test_sampling_commands_run_without_numpy(argv, want):
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SNCHAR_CAP", None)
    code = ('import sys; sys.modules["numpy"] = None; '
            'from snchar.cli import main; main()')
    done = subprocess.run(
        [sys.executable, "-c", code, *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want


_NO_NUMPY = """
import sys
from snchar import cli
for argv in (["pzero", "12"], ["table", "8", "--format", "csv"], ["bound", "12"],
             ["export-group", "8", "--output", sys.argv[1]]):
    if cli.run(argv) != 0:
        sys.exit(f"{argv} failed")
if "numpy" in sys.modules:
    sys.exit("numpy was imported")
"""


def test_table_commands_import_no_numpy(tmp_path):
    # a bare numpy import adds about 13 MiB to the peak RSS of a small table
    # process (pzero 12: 16.7 -> 29.5 MiB), and numpy's Philox about 18.5 MiB
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SNCHAR_CAP", None)
    done = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY, str(tmp_path / "s8.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "s8.json").exists()


_STARTUP = """
import sys
before = set(sys.modules)
import snchar.cli
print("\\n".join(sorted(set(sys.modules) - before)))
"""


def test_cli_import_loads_no_dataclasses_or_json():
    # dataclasses (with inspect, ast and dis), the dataclass decorations and
    # json made up about 25 ms of every CLI process (bound 70 --no-exact:
    # 133 -> 107 ms); json is imported where a command reads or writes it
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", _STARTUP],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    added = set(done.stdout.split())
    assert not {"dataclasses", "json"} & added
    # the module graph stays eager: perfbench's tracer instruments only the
    # snchar modules that are loaded once snchar.cli is imported
    submodules = {f"snchar.{m.name}" for m in pkgutil.iter_modules(snchar.__path__)}
    assert submodules <= added
