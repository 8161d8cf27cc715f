import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from snchar import groups as gr
from snchar import vanishing as vn


def s3_doc(**overrides):
    doc = {
        "group": "symmetric-3",
        "order": "6",
        "classes": [
            {"name": "3", "size": "2"},
            {"name": "2-1", "size": "3"},
            {"name": "1-1-1", "size": "1"},
        ],
        "table": [
            ["1", "1", "1"],
            ["-1", "0", "2"],
            ["1", "-1", "1"],
        ],
    }
    doc.update(overrides)
    return doc


def load(doc):
    return gr.load_class_data(json.dumps(doc).encode())


class TestLoader:
    def test_valid_s3(self):
        data = load(s3_doc())
        assert data.order == 6
        assert data.class_names == ("3", "2-1", "1-1-1")
        assert data.class_sizes == (2, 3, 1)
        assert data.table[1] == (Fraction(-1), Fraction(0), Fraction(2))

    def test_table_optional(self):
        data = load(s3_doc(table=None))
        assert data.table is None

    def test_trivial_group(self):
        data = load({
            "group": "trivial", "order": "1",
            "classes": [{"name": "e", "size": "1"}],
        })
        assert data.num_classes == 1

    def test_accepts_plain_ints_and_rationals(self):
        doc = s3_doc()
        doc["order"] = 6
        doc["classes"][0]["size"] = 2
        doc["table"][1][2] = {"num": "4", "den": "2"}
        assert load(doc).table[1][2] == 2

    def test_only_rational_entries_are_fractions(self):
        doc = s3_doc()
        doc["table"][0][0] = 1
        doc["table"][1][2] = {"num": "4", "den": "2"}
        table = load(doc).table
        assert type(table[0][0]) is int and type(table[0][1]) is int
        assert type(table[1][2]) is Fraction
        assert sum(type(v) is int for row in table for v in row) == 8

    def test_reads_streams(self, tmp_path):
        path = tmp_path / "s3.json"
        path.write_text(json.dumps(s3_doc()))
        with open(path, "rb") as fh:
            assert gr.load_class_data(fh).order == 6

    def test_not_json(self):
        with pytest.raises(ValueError, match="not valid JSON"):
            gr.load_class_data(b"{nope")
        with pytest.raises(ValueError, match="must be a JSON object"):
            gr.load_class_data(b"[]")

    @pytest.mark.parametrize("order", ["0", "-6"])
    def test_order_must_be_positive(self, order):
        with pytest.raises(ValueError, match="group order must be positive"):
            load(s3_doc(order=order, table=None))

    @pytest.mark.parametrize("classes", [None, [], {"name": "e", "size": "6"}],
                             ids=["missing", "empty", "not-a-list"])
    def test_classes_must_be_a_nonempty_list(self, classes):
        doc = s3_doc(table=None)
        if classes is None:
            del doc["classes"]
        else:
            doc["classes"] = classes
        with pytest.raises(ValueError, match="classes must be a nonempty list"):
            load(doc)

    @pytest.mark.parametrize("key", ["name", "size"])
    def test_class_needs_name_and_size(self, key):
        doc = s3_doc(table=None)
        del doc["classes"][1][key]
        with pytest.raises(ValueError, match="class #1 must be an object with name and size"):
            load(doc)

    def test_sizes_must_sum_to_order(self):
        doc = s3_doc(table=None)
        doc["classes"][1]["size"] = "2"
        with pytest.raises(ValueError, match="sum to 5"):
            load(doc)

    def test_size_must_divide_order(self):
        doc = {
            "group": "g", "order": "6", "table": None,
            "classes": [{"name": "e", "size": "1"},
                        {"name": "bad", "size": "5"}],
        }
        with pytest.raises(ValueError, match="'bad'"):
            load(doc)

    def test_nonpositive_size(self):
        doc = s3_doc(table=None)
        doc["classes"][2]["size"] = "0"
        with pytest.raises(ValueError, match="nonpositive"):
            load(doc)

    def test_table_shape_checked(self):
        doc = s3_doc()
        doc["table"] = doc["table"][:2]
        with pytest.raises(ValueError, match="3 rows"):
            load(doc)
        doc = s3_doc()
        doc["table"][0] = ["1", "1"]
        with pytest.raises(ValueError, match="3 entries"):
            load(doc)

    def test_float_entries_rejected(self):
        doc = s3_doc()
        doc["table"][0][0] = 1.0
        with pytest.raises(ValueError, match="out of scope"):
            load(doc)

    def test_zero_denominator_rejected(self):
        doc = s3_doc()
        doc["table"][0][0] = {"num": "1", "den": "0"}
        with pytest.raises(ValueError, match="zero denominator"):
            load(doc)

    def test_orthogonality_enforced(self):
        doc = s3_doc()
        doc["table"][1][1] = "1"  # breaks the (2-1) column
        with pytest.raises(ValueError, match="orthogonality.*2-1"):
            load(doc)

    @pytest.mark.parametrize("entry, got", [("1", "3"), ({"num": "1", "den": "2"}, "9/4")])
    def test_orthogonality_message(self, entry, got):
        doc = s3_doc()
        doc["table"][1][1] = entry
        with pytest.raises(ValueError) as err:
            load(doc)
        assert str(err.value) == (
            f"column orthogonality fails at class '2-1': sum of squares {got}, expected 2"
        )


class TestDecimalStrings:
    """Integers in class data are decimal strings: an optional sign and
    ASCII digits. int() would also read each form below as the valid
    number (the digit is ARABIC-INDIC DIGIT SIX); each is refused."""

    FORMS = pytest.mark.parametrize("text", ["0_6", " 6", "6 ", "\u0666"],
                                    ids=["underscore", "leading-space",
                                         "trailing-space", "non-ascii-digit"])

    @FORMS
    def test_order(self, text):
        with pytest.raises(ValueError, match="group order must be a decimal integer"):
            load(s3_doc(order=text))

    @FORMS
    def test_class_size(self, text):
        doc = s3_doc()
        doc["classes"][1]["size"] = text.replace("6", "3").replace("\u0666", "\u0663")
        with pytest.raises(ValueError, match="size of class '2-1' must be a decimal integer"):
            load(doc)

    @FORMS
    def test_table_entry(self, text):
        doc = s3_doc()
        doc["table"][1][2] = text.replace("6", "2").replace("\u0666", "\u0662")
        with pytest.raises(ValueError, match=r"table entry \[1\]\[2\] must be a decimal integer"):
            load(doc)

    @FORMS
    def test_rational_numerator(self, text):
        doc = s3_doc()
        doc["table"][1][2] = {"num": text.replace("6", "4").replace("\u0666", "\u0664"),
                              "den": "2"}
        with pytest.raises(ValueError,
                           match=r"table entry \[1\]\[2\] numerator must be a decimal integer"):
            load(doc)

    def test_signs_are_accepted(self):
        doc = s3_doc(order="+6")
        doc["table"][1][2] = {"num": "+4", "den": "+2"}
        data = load(doc)
        assert data.order == 6 and data.table[1][2] == 2 and data.table[1][0] == -1


class TestDefaultOmega:
    def test_s3(self):
        data = load(s3_doc())
        assert gr.default_omega(data) == [0, 1]

    def test_trivial(self):
        data = load({
            "group": "trivial", "order": "1",
            "classes": [{"name": "e", "size": "1"}],
        })
        assert gr.default_omega(data) == [0]

    def test_s4_sizes(self):
        data = gr.load_class_data(json.dumps(gr.symmetric_group_json(4)))
        omega = gr.default_omega(data)
        names = [data.class_names[j] for j in omega]
        assert names == ["4", "3-1", "2-1-1"]


class TestPropositionBound:
    def test_empty_omega(self):
        rep = gr.proposition_bound(load(s3_doc()), [])
        assert rep.q == 0 and rep.r == 0 and rep.lower_bound == 0
        assert rep.exact_p == Fraction(1, 6)

    def test_all_classes(self):
        rep = gr.proposition_bound(load(s3_doc()), [0, 1, 2])
        assert rep.q == 1 and rep.r == 1 and rep.lower_bound == 0

    def test_s3_default(self):
        data = load(s3_doc())
        rep = gr.proposition_bound(data, gr.default_omega(data))
        assert rep.q == Fraction(5, 6)
        assert rep.r == Fraction(2, 3)
        assert rep.lower_bound == Fraction(1, 6)
        assert rep.exact_p == Fraction(1, 6)
        assert rep.omega_names == ("3", "2-1")

    def test_no_table_no_exact(self):
        rep = gr.proposition_bound(load(s3_doc(table=None)), [0])
        assert rep.exact_p is None

    def test_bad_index(self):
        with pytest.raises(ValueError):
            gr.proposition_bound(load(s3_doc()), [3])

    def test_json(self):
        rep = gr.proposition_bound(load(s3_doc()), [0, 1])
        doc = rep.to_json_dict()
        assert doc["q"] == {"num": "5", "den": "6"}
        assert doc["omega_names"] == ["3", "2-1"]

    def test_exact_p_matches_symmetric_route(self):
        for n in (2, 3, 4, 5, 6):
            data = gr.load_class_data(json.dumps(gr.symmetric_group_json(n)))
            rep = gr.proposition_bound(data, gr.default_omega(data))
            assert rep.exact_p == vn.exact_pzero(n), n
            assert 1 >= rep.exact_p >= rep.lower_bound


class TestBestOmega:
    def test_s3(self):
        rec = gr.best_omega_check(load(s3_doc()))
        assert rec.method == "exhaustive"
        assert rec.subsets_checked == 8
        assert rec.max_value == Fraction(1, 6)
        assert rec.default_is_max

    def test_trivial(self):
        rec = gr.best_omega_check(load({
            "group": "trivial", "order": "1",
            "classes": [{"name": "e", "size": "1"}],
        }))
        assert rec.max_value == 0
        assert rec.default_is_max

    def test_symmetric_groups(self):
        for n in (2, 3, 4, 5, 6, 7):
            data = gr.load_class_data(json.dumps(gr.symmetric_group_json(n)))
            rec = gr.best_omega_check(data)
            assert rec.method == "exhaustive"
            assert rec.default_is_max, n

    def test_sampled_path(self):
        # 22 classes of equal size in an abelian-style mock: k*size = 22 > 21? use sizes 1
        sizes = tuple([1] * 22)
        data = gr.ClassData(
            group_name="mock", order=22,
            class_names=tuple(f"c{i}" for i in range(22)),
            class_sizes=sizes,
        )
        rec = gr.best_omega_check(data)
        assert rec.method == "sampled"
        # every class has k*size = 22 >= 22, all weights zero: max is 0
        assert rec.max_value == 0
        assert rec.default_is_max

    @staticmethod
    def _mixed_signs():
        # 25 classes take the sampled branch; weights k*size - order of both signs
        sizes = (1,) * 15 + (2,) * 5 + (10, 20, 30, 40, 50)
        return gr.ClassData(
            group_name="mock", order=sum(sizes),
            class_names=tuple(f"c{i}" for i in range(len(sizes))),
            class_sizes=sizes,
        )

    def test_sampled_draws_one_bit_per_class(self, monkeypatch):
        # no output shows the scan's draws (best never moves), so count them
        calls = []

        class Recording(random.Random):
            def getrandbits(self, k):
                calls.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(gr.random, "Random", Recording)
        monkeypatch.setattr(gr, "SAMPLED_SUBSETS", 64)
        data = self._mixed_signs()
        rec = gr.best_omega_check(data)
        assert rec.method == "sampled" and rec.subsets_checked == 64
        assert calls == [1] * (64 * data.num_classes)

    def test_sampled_draws_one_word_per_bit(self, monkeypatch):
        # at full size the generator ends where one 32-bit word per draw
        # leaves Random(0)
        made = []

        class Kept(random.Random):
            def __init__(self, seed):
                super().__init__(seed)
                made.append(self)

        data = self._mixed_signs()
        want = random.Random(0)
        want.getrandbits(32 * gr.SAMPLED_SUBSETS * data.num_classes)
        monkeypatch.setattr(gr.random, "Random", Kept)
        gr.best_omega_check(data)
        assert len(made) == 1
        assert made[0].getstate() == want.getstate()

    @given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=11))
    def test_exhaustive_max_equals_greedy(self, sizes):
        # greedy argument: the maximum of Q - R picks exactly the classes
        # with nonnegative weight k*size - order
        data = gr.ClassData(
            group_name="synthetic", order=sum(sizes),
            class_names=tuple(str(i) for i in range(len(sizes))),
            class_sizes=tuple(sizes),
        )
        rec = gr.best_omega_check(data)
        k = len(sizes)
        greedy = sum(max(k * s - data.order, 0) for s in sizes)
        assert rec.max_value == Fraction(greedy, k * data.order)
        assert rec.default_is_max

    def test_json(self):
        doc = gr.best_omega_check(load(s3_doc())).to_json_dict()
        assert doc["max_value"] == {"num": "1", "den": "6"}
        assert doc["default_is_max"] is True


class TestExport:
    def test_round_trip(self):
        doc = gr.symmetric_group_json(5)
        data = gr.load_class_data(json.dumps(doc))
        assert data.order == 120
        assert data.num_classes == 7
        assert data.group_name == "symmetric-5"

    def test_all_strings(self):
        doc = gr.symmetric_group_json(3)
        assert doc["order"] == "6"
        assert all(isinstance(c["size"], str) for c in doc["classes"])
        assert all(isinstance(v, str) for row in doc["table"] for v in row)
