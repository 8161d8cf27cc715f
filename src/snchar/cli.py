"""Command-line surface: every operation reachable as a subcommand,
with text output for humans and JSON/CSV for machines.

Exit codes: 0 success, 2 argument or input validation failure,
3 enumeration cap exceeded. Machine-readable output is deterministic:
identical flags (and seed) produce byte-identical bytes. Every JSON
report embeds the resolved run configuration.

A subcommand is declared once, by one command(...) call in _build_parser:
its arguments, its format choices and its handler. Every argument's dest
is a RunConfig field (or --f, which splits into f_mode and f_const), so
the config is the parsed namespace restricted to those fields.
"""

import argparse
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import NamedTuple

from . import CapExceededError
from . import characters as ch
from . import groups as gr
from . import sampling as sp
from . import vanishing as vn
from .table_stats import series_csv, stats_series


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


def _fmt_frac(x: Fraction) -> str:
    """Human form: exact fraction plus 15-significant-digit decimal."""
    return f"{x} ({float(x):.15g})"


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


def _json_report(cfg: RunConfig, body: dict) -> str:
    import json

    return json.dumps({"config": cfg._asdict(), **body}, indent=2) + "\n"


def _omega_spec(cfg: RunConfig) -> vn.OmegaSpec:
    return vn.OmegaSpec(
        c=cfg.c, f_mode=cfg.f_mode, f_const=cfg.f_const, strict=cfg.strict
    )


# -- subcommand bodies ---------------------------------------------------------

def _cmd_table(cfg: RunConfig) -> str:
    tbl = ch.character_table(cfg.n, cfg.cap)
    if cfg.fmt == "json":
        return _json_report(cfg, {"table": tbl.to_json_dict()})
    return tbl.to_csv() if cfg.fmt == "csv" else tbl.to_text()


def _cmd_pzero(cfg: RunConfig) -> str:
    p = vn.exact_pzero(cfg.n, cfg.cap)
    if cfg.fmt == "json":
        return _json_report(cfg, {"n": cfg.n, "p": gr.rational_json(p)})
    return f"P_{cfg.n} = {_fmt_frac(p)}\n"


def _cmd_bound(cfg: RunConfig) -> str:
    rep = vn.lemma_bound(cfg.n, _omega_spec(cfg), cfg.exact, cfg.cap)
    if cfg.fmt == "json":
        return _json_report(cfg, {"bound": rep.to_json_dict()})
    lines = [
        f"n = {rep.n}",
        f"p_n = {rep.p_n}",
        f"|Omega| = {rep.omega_count}",
        f"Q_n = {_fmt_frac(rep.q_n)}",
        f"R_n = |Omega|/p_n = {_fmt_frac(rep.r_n)}",
        f"lower bound Q_n - R_n = {_fmt_frac(rep.lower_bound)}",
    ]
    if rep.exact_p is not None:
        lines.append(f"exact P_n = {_fmt_frac(rep.exact_p)}")
        lines.append("bound check 1 >= P_n >= Q_n - R_n: OK")
    return "\n".join(lines) + "\n"


def _cmd_mc_pzero(cfg: RunConfig) -> str:
    s = vn.montecarlo_pzero(cfg.n, cfg.samples, cfg.seed, cfg.cap)
    if cfg.fmt == "json":
        return _json_report(cfg, {"summary": s.to_json_dict()})
    return (
        f"P_{cfg.n} estimate = {s.estimate!r} +/- {s.std_error!r}"
        f" ({s.samples} samples, seed {s.seed})\n"
    )


def _cmd_goncharov(cfg: RunConfig) -> str:
    g = vn.goncharov_experiment(cfg.n, cfg.samples, cfg.seed)
    if cfg.fmt == "csv":
        lines = ["normalized_value"]
        lines.extend(repr(v) for v in g.normalized_values)
        return "\n".join(lines) + "\n"
    if cfg.fmt == "json":
        return _json_report(cfg, {
            "n": g.n,
            "sample_count": g.sample_count,
            "seed": g.seed,
            "ks_distance": g.ks_distance,
        })
    return (
        f"cycle counts at n={g.n}: {g.sample_count} samples, seed {g.seed}\n"
        f"KS distance to limit law = {g.ks_distance!r}\n"
    )


def _cmd_long_cycle(cfg: RunConfig) -> str:
    s = vn.long_cycle_frequency(cfg.n, cfg.samples, cfg.seed)
    if cfg.fmt == "json":
        return _json_report(cfg, {"summary": s.to_json_dict()})
    return (
        f"freq(cycle >= n/(2 log n)) at n={cfg.n}:"
        f" {s.estimate!r} +/- {s.std_error!r}"
        f" ({s.samples} samples, seed {s.seed})\n"
    )


def _cmd_table_stats(cfg: RunConfig) -> str:
    series = stats_series(cfg.n_min, cfg.n_max, cfg.cap)
    if cfg.fmt == "csv":
        return series_csv(series)
    if cfg.fmt == "json":
        return _json_report(cfg, {"series": [s.to_json_dict() for s in series]})
    lines = []
    for s in series:
        ratio = "undefined" if s.sign_ratio is None else _fmt_frac(s.sign_ratio)
        lines.append(
            f"n={s.n}: zeros {s.zero_entries}, positives {s.positive_entries},"
            f" negatives {s.negative_entries},"
            f" zero density {_fmt_frac(s.zero_density)}, sign ratio {ratio}"
        )
    return "\n".join(lines) + "\n" if lines else "empty range\n"


def _cmd_group(cfg: RunConfig) -> str:
    try:
        with open(cfg.input_file, "rb") as fh:
            data = gr.load_class_data(fh)
    except OSError as e:
        raise ValueError(f"cannot read {cfg.input_file!r}: {e}") from None
    omega = gr.default_omega(data)
    rep = gr.proposition_bound(data, omega)
    check = gr.best_omega_check(data) if cfg.exhaustive_omega else None
    if cfg.fmt == "json":
        body = {
            "group": data.group_name,
            "num_classes": data.num_classes,
            "report": rep.to_json_dict(),
        }
        if check is not None:
            body["omega_check"] = check.to_json_dict()
        return _json_report(cfg, body)
    lines = [
        f"group {data.group_name!r}: order {data.order}, {data.num_classes} classes",
        f"default Omega ({len(omega)} classes): {', '.join(rep.omega_names)}",
        f"Q = {_fmt_frac(rep.q)}",
        f"R = {_fmt_frac(rep.r)}",
        f"lower bound Q - R = {_fmt_frac(rep.lower_bound)}",
    ]
    if rep.exact_p is not None:
        lines.append(f"exact P = {_fmt_frac(rep.exact_p)}")
        lines.append("bound check 1 >= P >= Q - R: OK")
    if check is not None:
        lines.append(
            f"max of Q - R over subsets ({check.method},"
            f" {check.subsets_checked} checked) = {_fmt_frac(check.max_value)};"
            f" default attains it: {check.default_is_max}"
        )
    return "\n".join(lines) + "\n"


def _cmd_export_group(cfg: RunConfig) -> str:
    import json

    doc = gr.symmetric_group_json(cfg.n, cfg.cap)
    doc["config"] = cfg._asdict()
    return json.dumps(doc, indent=2) + "\n"


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

    def command(name, run, help, *adders, fmt=("text", "json"), default_fmt="text"):
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for add in adders:
            add(p)
        p.add_argument("--format", dest="fmt", choices=fmt, default=default_fmt)
        p.add_argument("--output", help="write the report to this path")
        p.add_argument("--cap", type=int, help="enumeration cap override")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in JSON configs; has no effect")

    def arg(*names, **kwargs):
        return lambda p: p.add_argument(*names, **kwargs)

    def sampled(p):
        p.add_argument("--samples", type=int, default=10_000)
        p.add_argument("--seed", type=int, default=sp.DEFAULT_SEED)

    n = arg("n", type=int)
    tables = ("text", "csv", "json")
    command("table", _cmd_table, "export the character table of S_n", n,
            fmt=tables, default_fmt="csv")
    command("pzero", _cmd_pzero, "exact vanishing probability P_n", n)
    command("bound", _cmd_bound, "lower-bound report for P_n", n,
            arg("--C", dest="c", type=float, default=vn.DEFAULT_C,
                help="threshold constant (default sqrt(6)/(2 pi))"),
            arg("--f", default="log",
                help="'log' for f(n)=log n, or a constant value"),
            arg("--strict", action="store_true",
                help="use a strict > threshold comparison"),
            arg("--no-exact", dest="exact", action="store_false",
                help="skip the exact P_n computation"))
    command("mc-pzero", _cmd_mc_pzero, "Monte Carlo estimate of P_n", n, sampled)
    command("goncharov", _cmd_goncharov,
            "normalized cycle-count sample vs the limit law", n, sampled,
            fmt=("text", "json", "csv"))
    command("long-cycle", _cmd_long_cycle,
            "frequency of a cycle of length >= n/(2 log n)", n, sampled)
    command("table-stats", _cmd_table_stats, "zero/sign statistics series",
            arg("n_min", type=int), arg("n_max", type=int),
            fmt=tables, default_fmt="csv")
    command("group", _cmd_group, "bound report from a class-data file",
            arg("input_file", metavar="file"),
            arg("--exhaustive-omega", action="store_true",
                help="verify default Omega maximizes Q - R over subsets"))
    command("export-group", _cmd_export_group,
            "emit S_n as generic class-data JSON", n,
            fmt=("json",), default_fmt="json")
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
    raise SystemExit(run())


if __name__ == "__main__":
    main()
