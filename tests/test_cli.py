import hashlib
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


class TestCapBoundaries:
    """A table command runs at --cap p_n^2 and is refused one below it; an
    inner counting table or enumeration is not checked again."""

    TABLES = [["table"], ["pzero"], ["table-stats", "1"], ["export-group"]]

    @pytest.mark.parametrize("n", range(1, 6))
    @pytest.mark.parametrize("argv", TABLES)
    def test_table_runs_at_p_n_squared(self, capsys, argv, n):
        need = snchar.partition_count(n) ** 2
        assert cli.run(argv + [str(n), "--cap", str(need)]) == 0

    # at n = 1, one below p_n^2 is --cap 0, which exits 2
    # (TestSurface.test_error_message)
    @pytest.mark.parametrize("n", range(2, 6))
    @pytest.mark.parametrize("argv", TABLES + [["bound"]])
    def test_table_refused_below_p_n_squared(self, capsys, argv, n):
        need = snchar.partition_count(n) ** 2
        assert cli.run(argv + [str(n), "--cap", str(need - 1)]) == 3
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: a table for n={n} needs p_n^2 = {need} entries"
            f" (exceeds cap {need - 1})\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_bound_runs_at_p_n_squared(self, capsys, n):
        need = snchar.partition_count(n) ** 2
        assert cli.run(["bound", str(n), "--cap", str(need)]) == 0

    @pytest.mark.parametrize("n", [1, 3, 5, 20])
    def test_mc_pzero_cap_is_its_counting_table(self, capsys, n):
        need = (n + 1) * (n + 2) // 2
        argv = ["mc-pzero", str(n), "--samples", "100", "--cap"]
        assert cli.run(argv + [str(need)]) == 0
        capsys.readouterr()
        assert cli.run(argv + [str(need - 1)]) == 3
        assert capsys.readouterr().err == (
            f"error: a counting table for n={n} needs {need} entries"
            f" (exceeds cap {need - 1})\n"
        )


class TestHugeThreshold:
    @pytest.mark.parametrize("flag,value", [("--f", "1e308"), ("--C", "1e19")])
    def test_empty_omega(self, capsys, flag, value):
        # the threshold is past 2^63 but finite: Omega is empty, Q_n = 0
        out = run_ok(capsys, "bound", "12", flag, value)
        assert "|Omega| = 0\n" in out
        assert "Q_n = 0 (0)\n" in out


# SHA-256 of each --help at 80 columns, and the JSON config of one run of
# each subcommand: the parser's arguments, dests and RunConfig agree.
_HELP_SHA256 = {
    None: "d88c511883eccd212afc501c1660eb0a0638ff2d616be4db074ca05503e7fbc3",
    "table": "0dbf7f5c60f95673f04e71279f10d145abb2306a92353f4d528caed8eb0c7fbe",
    "pzero": "3b6fe8b89a0d1791a170e7794a063441f02fc5499507c05fb32bf7681a4de97f",
    "bound": "25e8d89442a292ebdf43fd2d880861070e8ceb68b14c27d6eb59d58af363e153",
    "mc-pzero": "b35905c2051db07a359978a636fccdf4d25a32c9a0f271006a6060e2c2736f85",
    "goncharov": "0e425aa5d2b0ba2ebf007bab380a8edcb0773bdff2fe37bd435870cc449ca04b",
    "long-cycle": "074ca7dec27c2e7a6113361abf09da95d16f9d521ad320e330f797595e1bc2e6",
    "table-stats": "daeb4f398bb938b7308a8e42e1bf0805abff388e1e9def7f4543facd6aaf3f90",
    "group": "dc202a148ac63b4621c135b2d0e00432be82052da000d55008f9727d90a3b6bf",
    "export-group": "2a23224d401362cb8ece69d4c37578a3492dece3cb605e44304ab2f9aaa5281e",
}

_CONFIG_KEYS = (
    "subcommand", "n", "n_min", "n_max", "samples", "seed", "c", "f_mode",
    "f_const", "strict", "exact", "fmt", "output", "cap", "threads",
    "input_file", "exhaustive_omega",
)

# argv, then the config's values other than null
_CONFIGS = [
    (["table", "4", "--format", "json"],
     {"subcommand": "table", "n": 4, "fmt": "json", "threads": 1}),
    (["pzero", "5", "--format", "json", "--cap", "1000", "--threads", "2"],
     {"subcommand": "pzero", "n": 5, "fmt": "json", "cap": 1000, "threads": 2}),
    (["bound", "8", "--format", "json", "--C", "0.5", "--f", "1.5", "--strict",
      "--no-exact"],
     {"subcommand": "bound", "n": 8, "c": 0.5, "f_mode": "const", "f_const": 1.5,
      "strict": True, "exact": False, "fmt": "json", "threads": 1}),
    (["mc-pzero", "4", "--samples", "50", "--seed", "3", "--format", "json"],
     {"subcommand": "mc-pzero", "n": 4, "samples": 50, "seed": 3, "fmt": "json",
      "threads": 1}),
    (["goncharov", "20", "--samples", "50", "--format", "json"],
     {"subcommand": "goncharov", "n": 20, "samples": 50, "seed": 20250217,
      "fmt": "json", "threads": 1}),
    (["long-cycle", "30", "--samples", "50", "--format", "json"],
     {"subcommand": "long-cycle", "n": 30, "samples": 50, "seed": 20250217,
      "fmt": "json", "threads": 1}),
    (["table-stats", "3", "5", "--format", "json"],
     {"subcommand": "table-stats", "n_min": 3, "n_max": 5, "fmt": "json",
      "threads": 1}),
    (["group", "GROUP_FILE", "--exhaustive-omega", "--format", "json"],
     {"subcommand": "group", "fmt": "json", "threads": 1,
      "input_file": "GROUP_FILE", "exhaustive_omega": True}),
    (["export-group", "3"],
     {"subcommand": "export-group", "n": 3, "fmt": "json", "threads": 1}),
]

# argv, then stderr in full; the choice errors below are matched only up
# to the choice list, whose quoting is argparse's and not snchar's
_ERRORS = [
    (["pzero", "5", "--threads", "0"], "error: --threads must be >= 1\n"),
    (["pzero", "5", "--cap", "0"], "error: --cap must be >= 1\n"),
    (["mc-pzero", "3", "--samples", "0"], "error: --samples must be >= 1\n"),
    (["bound", "6", "--f", "cubic"],
     "error: --f must be 'log' or a number, got 'cubic'\n"),
    (["group"], "error: the following arguments are required: file\n"),
    (["table-stats", "3"], "error: the following arguments are required: n_max\n"),
    (["pzero", "abc"], "error: argument n: invalid int value: 'abc'\n"),
    (["bound", "12", "--C", "x"], "error: argument --C: invalid float value: 'x'\n"),
    (["pzero", "3", "--wat"], "error: unrecognized arguments: --wat\n"),
    ([], "error: the following arguments are required: subcommand\n"),
]


class TestSurface:
    @pytest.mark.parametrize("sub", list(_HELP_SHA256), ids=lambda s: s or "top")
    def test_help_is_pinned(self, capsys, monkeypatch, sub):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.run(["--help"] if sub is None else [sub, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == _HELP_SHA256[sub]

    @pytest.mark.parametrize("argv,values", _CONFIGS, ids=[a[0] for a, _ in _CONFIGS])
    def test_json_config(self, capsys, tmp_path, argv, values):
        path = tmp_path / "s3.json"
        run_ok(capsys, "export-group", "3", "--output", str(path))
        argv = [str(path) if a == "GROUP_FILE" else a for a in argv]
        config = json.loads(run_ok(capsys, *argv))["config"]
        want = dict.fromkeys(_CONFIG_KEYS)
        want.update(values)
        if "input_file" in values:
            want["input_file"] = str(path)
        assert config == want
        assert tuple(config) == _CONFIG_KEYS

    @pytest.mark.parametrize("argv,err", _ERRORS, ids=[" ".join(a) or "none" for a, _ in _ERRORS])
    def test_error_message(self, capsys, argv, err):
        assert cli.run(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == err
        assert captured.out == ""

    @pytest.mark.parametrize("argv,head", [
        (["goncharov", "20", "--format", "xml"],
         "error: argument --format: invalid choice: 'xml'"),
        (["frobnicate", "3"], "error: argument subcommand: invalid choice: 'frobnicate'"),
    ])
    def test_choice_error(self, capsys, argv, head):
        assert cli.run(argv) == 2
        assert capsys.readouterr().err.startswith(head)


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


_FREEZE_PROBE = """
import gc
from snchar import cli
cli.run = lambda argv=None: print(gc.get_freeze_count()) or 0
cli.main()
"""


def test_main_freezes_the_import_time_heap():
    # the console script moves every import-time object to the permanent
    # generation before run(), so no collection, at exit either, walks them
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    done = subprocess.run(
        [sys.executable, "-c", _FREEZE_PROBE],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert int(done.stdout) > 0


_RUN_IN_PROCESS = """
import gc
import sys
before = gc.get_freeze_count()
from snchar import cli
cli.run(["pzero", "5"])
print(before, gc.get_freeze_count(), file=sys.stderr)
"""


def test_import_and_run_leave_the_collector_alone():
    # run() and the library are called in-process, hundreds of times in one
    # test session: only main() freezes
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SNCHAR_CAP", None)
    done = subprocess.run(
        [sys.executable, "-c", _RUN_IN_PROCESS],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    before, after = done.stderr.split()
    assert before == after


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("argv", [["pzero", "5"], ["table", "20", "--format", "csv"]],
                         ids=["pzero-5", "table-20-csv"])
def test_closed_stdout_exits_quietly(argv, unbuffered):
    # a pipe whose read end is closed before the start: unbuffered, the
    # report's write fails inside run(); buffered, main()'s final flush does
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SNCHAR_CAP", None)
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "snchar.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1, done.stderr
    assert "Traceback" not in done.stderr, done.stderr
    assert "Exception ignored" not in done.stderr, done.stderr


def test_module_run_prints_the_readme_block():
    # python3 -m snchar.cli runs the CLI like the installed snchar script
    src = os.path.dirname(os.path.dirname(snchar.__file__))
    with open(os.path.join(os.path.dirname(src), "README.md"), encoding="utf-8") as fh:
        readme = fh.read()
    start = readme.index("$ snchar bound 12\n") + len("$ snchar bound 12\n")
    want = readme[start:readme.index("\n\n", start) + 1]
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("SNCHAR_CAP", None)
    done = subprocess.run(
        [sys.executable, "-m", "snchar.cli", "bound", "12"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == want
