"""The report and configuration types: immutable named tuples whose repr,
field order and validation are part of the CLI's output contract."""

import json

import pytest

from snchar import characters as ch
from snchar import cli
from snchar import groups as gr
from snchar import sampling as sp
from snchar import vanishing as vn
from snchar.table_stats import StatsReport, table_stats


def _instances():
    data = gr.load_class_data(json.dumps(gr.symmetric_group_json(3)))
    return {
        "CharacterTable": ch.character_table(3),
        "ClassData": data,
        "PropositionReport": gr.proposition_bound(data, gr.default_omega(data)),
        "OmegaCheckRecord": gr.best_omega_check(data),
        "GroupReport": gr.group_report(data, check=True),
        "TableStats": table_stats(3),
        "StatsReport": StatsReport([table_stats(3)]),
        "PzeroReport": vn.PzeroReport(3, vn.exact_pzero(3)),
        "OmegaSpec": vn.OmegaSpec(),
        "BoundReport": vn.lemma_bound(6),
        "GoncharovSample": vn.goncharov_experiment(10, 5, seed=1),
        "SampleSummary": sp.SampleSummary(0.5, 4, 0.25, 1, {"n": 3}),
        "RunConfig": cli.RunConfig("pzero"),
    }


@pytest.mark.parametrize("name", list(_instances()))
def test_rejects_attribute_assignment(name):
    obj = _instances()[name]
    assert type(obj).__name__ == name
    with pytest.raises(AttributeError):
        setattr(obj, obj._fields[0], None)
    with pytest.raises(AttributeError):
        obj.not_a_field = None


def test_repr_is_unchanged():
    # the strings the frozen dataclasses printed
    assert repr(vn.OmegaSpec()) == (
        "OmegaSpec(c=0.389848400616838, f_mode='log', f_const=0.0, strict=False)"
    )
    assert repr(vn.lemma_bound(6, compute_exact=True)) == (
        "BoundReport(n=6, p_n=11, omega_count=4, q_n=Fraction(37, 60),"
        " r_n=Fraction(4, 11), lower_bound=Fraction(167, 660),"
        " exact_p=Fraction(2839, 7920))"
    )


class TestOmegaSpecValidation:
    def test_construction(self):
        with pytest.raises(ValueError):
            vn.OmegaSpec(c=0.0)
        with pytest.raises(ValueError):
            vn.OmegaSpec(1.0, "linear")

    def test_replace_and_make_validate(self):
        with pytest.raises(ValueError):
            vn.OmegaSpec()._replace(c=-1.0)
        with pytest.raises(ValueError):
            vn.OmegaSpec()._replace(f_mode="linear")
        with pytest.raises(ValueError):
            vn.OmegaSpec._make([0.0, "log", 0.0, False])

    def test_replace_keeps_the_type(self):
        spec = vn.OmegaSpec()._replace(c=2.0, strict=True)
        assert type(spec) is vn.OmegaSpec
        assert spec == vn.OmegaSpec(c=2.0, strict=True)


def test_run_config_field_order():
    # JSON reports embed cfg._asdict(); its key order is the dataclass order
    assert list(cli.RunConfig("pzero")._asdict()) == [
        "subcommand", "n", "n_min", "n_max", "samples", "seed", "c", "f_mode",
        "f_const", "strict", "exact", "fmt", "output", "cap", "threads",
        "input_file", "exhaustive_omega",
    ]


def test_the_cli_prints_each_report_s_own_forms(capsys):
    rep = vn.lemma_bound(12, compute_exact=True)
    assert cli.run(["bound", "12"]) == 0
    assert capsys.readouterr().out == rep.to_text()
    stats = StatsReport([table_stats(n) for n in (3, 4)])
    assert cli.run(["table-stats", "3", "4"]) == 0
    assert capsys.readouterr().out == stats.to_csv()
    assert cli.run(["table-stats", "3", "4", "--format", "text"]) == 0
    assert capsys.readouterr().out == stats.to_text()
