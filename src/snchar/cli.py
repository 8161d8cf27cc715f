"""Command-line surface: every operation reachable as a subcommand,
with text output for humans and JSON/CSV for machines.

Exit codes: 0 success, 1 stdout closed before the report was written,
2 argument or input validation failure, 3 enumeration cap exceeded.
Machine-readable output is deterministic: identical flags (and seed)
produce byte-identical bytes. Every JSON report embeds the resolved run
configuration. main(), the snchar console script, freezes the import-time
heap (gc.freeze), so no later collection walks it; run() and the library
leave the collector as it is.

This module only declares and dispatches. A subcommand is one command(...)
call in _build_parser: its arguments, its formats, a compute callable from
RunConfig to a report, and the key of its JSON body. _render picks the
report's own to_text, to_csv or to_json_dict by --format. Every argument's
dest is a RunConfig field (or --f, which splits into f_mode and f_const),
so the config is the parsed namespace restricted to those fields.
"""

import argparse
import gc
import os
import sys
from contextlib import contextmanager
from typing import NamedTuple

from . import CapExceededError
from . import characters as ch
from . import groups as gr
from . import sampling as sp
from . import vanishing as vn
from .table_stats import StatsReport, stats_series


class RunConfig(NamedTuple):
    """Resolved flags for one invocation; embedded in JSON reports."""
    subcommand: str
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    samples: int | None = None
    seed: int | None = None
    c: float | None = None
    f_mode: str | None = None
    f_const: float | None = None
    strict: bool | None = None
    exact: bool | None = None
    fmt: str = "text"
    output: str | None = None
    cap: int | None = None
    threads: int | None = None
    input_file: str | None = None
    exhaustive_omega: bool | None = None


@contextmanager
def _unlimited_int_digits():
    """Lift the interpreter's limit on int-to-str digits (4300 by default)
    while a report is formatted: exact reports print integers of any length,
    and n! alone has 35,660 digits at n = 10,000. Pythons before 3.10.7 have
    no such limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def _emit(text: str, cfg: RunConfig) -> None:
    if not cfg.output:
        sys.stdout.write(text)
        return
    try:
        with open(cfg.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise ValueError(f"cannot write {cfg.output!r}: {e}") from None


def _render(cfg: RunConfig, report, key: str | None) -> str:
    """The report's --format form: to_text(), to_csv(), or the run config
    and then to_json_dict() as JSON, under key if one is given."""
    if cfg.fmt == "text":
        return report.to_text()
    if cfg.fmt == "csv":
        return report.to_csv()
    import json

    body = report.to_json_dict()
    return json.dumps({"config": cfg._asdict(), **({key: body} if key else body)},
                      indent=2) + "\n"


def _config_last(cfg: RunConfig, doc: dict, _key: None) -> str:
    """export-group's class-data document, with the run config last."""
    import json

    return json.dumps({**doc, "config": cfg._asdict()}, indent=2) + "\n"


def _group(cfg: RunConfig) -> gr.GroupReport:
    try:
        with open(cfg.input_file, "rb") as fh:
            data = gr.load_class_data(fh)
    except OSError as e:
        raise ValueError(f"cannot read {cfg.input_file!r}: {e}") from None
    return gr.group_report(data, cfg.exhaustive_omega)


# -- argument parsing ----------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        # argparse's default exits with 2, which matches the contract, but
        # raise instead so run() owns the exit-code path.
        raise ValueError(message)


def _build_parser() -> _ArgumentParser:
    top = _ArgumentParser(
        prog="snchar",
        description="Exact character values of symmetric groups and their"
        " vanishing statistics.",
    )
    sub = top.add_subparsers(dest="subcommand", required=True)

    def command(name, help, compute, *adders, key=None, fmt=("text", "json"),
                default_fmt="text", render=_render):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=lambda cfg: render(cfg, compute(cfg), key))
        for add in adders:
            add(p)
        p.add_argument("--format", dest="fmt", choices=fmt, default=default_fmt)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--cap", type=int, help="enumeration cap override")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in JSON configs; has no effect")

    def arg(*names, **kwargs):
        return lambda p: p.add_argument(*names, **kwargs)

    sampled = (arg("--samples", type=int, default=10_000),
               arg("--seed", type=int, default=sp.DEFAULT_SEED))

    n = arg("n", type=int)
    tables = ("text", "csv", "json")
    command("table", "export the character table of S_n",
            lambda cfg: ch.character_table(cfg.n, cfg.cap), n,
            key="table", fmt=tables, default_fmt="csv")
    command("pzero", "exact vanishing probability P_n",
            lambda cfg: vn.PzeroReport(cfg.n, vn.exact_pzero(cfg.n, cfg.cap)), n)
    command("bound", "lower-bound report for P_n",
            lambda cfg: vn.lemma_bound(
                cfg.n, vn.OmegaSpec(cfg.c, cfg.f_mode, cfg.f_const, cfg.strict),
                cfg.exact, cfg.cap),
            n,
            arg("--C", dest="c", type=float, default=vn.DEFAULT_C,
                help="threshold constant (default sqrt(6)/(2 pi))"),
            arg("--f", default="log",
                help="'log' for f(n)=log n, or a constant value"),
            arg("--strict", action="store_true",
                help="use a strict > threshold comparison"),
            arg("--no-exact", dest="exact", action="store_false",
                help="skip the exact P_n computation"),
            key="bound")
    command("mc-pzero", "Monte Carlo estimate of P_n",
            lambda cfg: vn.montecarlo_pzero(cfg.n, cfg.samples, cfg.seed, cfg.cap),
            n, *sampled, key="summary")
    command("goncharov", "normalized cycle-count sample vs the limit law",
            lambda cfg: vn.goncharov_experiment(cfg.n, cfg.samples, cfg.seed),
            n, *sampled, fmt=("text", "json", "csv"))
    command("long-cycle", "frequency of a cycle of length >= n/(2 log n)",
            lambda cfg: vn.long_cycle_frequency(cfg.n, cfg.samples, cfg.seed),
            n, *sampled, key="summary")
    command("table-stats", "zero/sign statistics series",
            lambda cfg: StatsReport(stats_series(cfg.n_min, cfg.n_max, cfg.cap)),
            arg("n_min", type=int), arg("n_max", type=int),
            fmt=tables, default_fmt="csv")
    command("group", "bound report from a class-data file", _group,
            arg("input_file", metavar="file"),
            arg("--exhaustive-omega", action="store_true",
                help="verify default Omega maximizes Q - R over subsets"))
    command("export-group", "emit S_n as generic class-data JSON",
            lambda cfg: gr.symmetric_group_json(cfg.n, cfg.cap), n,
            fmt=("json",), default_fmt="json", render=_config_last)
    return top


def _config_from_args(args) -> RunConfig:
    """Split --f into f_mode and f_const, validate, and keep the parsed
    values whose dests are RunConfig fields."""
    f = getattr(args, "f", None)
    if f == "log":
        args.f_mode, args.f_const = "log", 0.0
    elif f is not None:
        try:
            args.f_const = float(f)
        except ValueError:
            raise ValueError(f"--f must be 'log' or a number, got {f!r}") from None
        args.f_mode = "const"
    if getattr(args, "samples", 1) < 1:
        raise ValueError("--samples must be >= 1")
    if args.threads < 1:
        raise ValueError("--threads must be >= 1")
    if args.cap is not None and args.cap < 1:
        raise ValueError("--cap must be >= 1")
    return RunConfig(**{k: v for k, v in vars(args).items() if k in RunConfig._fields})


def run(argv=None) -> int:
    """Parse argv, run the subcommand, emit its report.

    Returns 0 on success, 2 on validation errors, 3 when a computation
    would exceed the enumeration cap.
    """
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as e:
            # --help lands here with code 0
            return int(e.code or 0)
        cfg = _config_from_args(args)
        with _unlimited_int_digits():
            text = args.run(cfg)
        _emit(text, cfg)
    except CapExceededError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    gc.freeze()  # every import is done
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: exit 1 quietly, with stdout on devnull
        # so the flush at exit raises nothing either
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    raise SystemExit(code)


if __name__ == "__main__":
    main()
