"""Class-data bound machinery for arbitrary finite groups.

Same sandwich as the symmetric-group case, phrased on conjugacy-class
data alone: for any set Omega of classes of a finite group G with k
classes,

    1 >= P(G) >= Q(G, Omega) - R(G, Omega)

where P(G) is the probability a uniformly chosen irreducible character
vanishes at a uniformly chosen element, Q is the probability the element
lands in an Omega class, and R = |Omega|/k. The right side is maximized
by taking Omega to be the larger-than-average classes, i.e. those K with
k*|K| >= |G| (centralizer order at most k); best_omega_check verifies
that maximality on concrete data.

Input is a JSON document of class sizes, with an optional exact character
table enabling exact P(G). Integers are JSON integers or decimal strings,
an optional sign and ASCII digits. Entries may also be {"num","den"}
rationals; irrational or complex values are out of scope. Every accepted
table is real, so the second column orthogonality relation (sum over
characters of chi(K)^2 = |G| / |K|) is enforced at load time.

rational_json and rational_text are the two forms of an exact rational in
every report. Each report type, GroupReport here among them, renders its
own text and JSON forms; cli only dispatches.
"""

import random
from fractions import Fraction
from itertools import compress, repeat
from math import factorial
from typing import NamedTuple


class ClassData(NamedTuple):
    """Conjugacy-class data of a finite group, optionally with its
    character table (rows = characters, columns = classes). Integer entries
    are ints; only {"num","den"} entries are Fractions.
    """
    group_name: str
    order: int
    class_names: tuple[str, ...]
    class_sizes: tuple[int, ...]
    table: tuple[tuple[int | Fraction, ...], ...] | None = None

    @property
    def num_classes(self) -> int:
        return len(self.class_sizes)


def _decimal(value) -> int | None:
    """A JSON integer, or a decimal string (an optional sign and ASCII
    digits), as an int; else None. int() alone would also take
    underscores, surrounding whitespace and non-ASCII digits."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        digits = value[1:] if value[:1] in ("+", "-") else value
        if digits.isascii() and digits.isdigit():
            return int(value)
    return None


def _parse_int(value, what: str) -> int:
    if (got := _decimal(value)) is None:
        raise ValueError(f"{what} must be a decimal integer, got {value!r}")
    return got


def rational_json(x: Fraction | None) -> dict | None:
    """Exact JSON form {"num", "den"} of a rational, as decimal strings;
    None stays None. _parse_entry reads it back.
    """
    if x is None:
        return None
    return {"num": str(x.numerator), "den": str(x.denominator)}


def rational_text(x: Fraction) -> str:
    """Text form of a rational: the exact fraction, then its decimal to 15
    significant digits in parentheses."""
    return f"{x} ({float(x):.15g})"


def _parse_entry(value, i: int, j: int) -> int | Fraction:
    if (got := _decimal(value)) is not None:
        return got  # the common case builds no location string
    where = f"table entry [{i}][{j}]"
    if isinstance(value, str):
        _parse_int(value, where)  # raises: not a decimal string
    if isinstance(value, dict) and set(value) == {"num", "den"}:
        num = _parse_int(value["num"], f"{where} numerator")
        den = _parse_int(value["den"], f"{where} denominator")
        if den == 0:
            raise ValueError(f"{where} has zero denominator")
        return Fraction(num, den)
    raise ValueError(
        f"{where} must be an integer, decimal string, or"
        f" {{'num','den'}} rational; irrational and complex values are out of scope"
    )


def load_class_data(source) -> ClassData:
    """Parse and validate class data from a byte stream, bytes, or str.

    Validation: positive sizes summing to the group order, each dividing
    it, and (when a table is present) a square table whose columns satisfy
    sum of squares = |G|/size exactly. Errors name the offending class.
    """
    import json

    raw = source.read() if hasattr(source, "read") else source
    if isinstance(raw, bytes):
        raw = raw.decode("utf-8")
    try:
        doc = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ValueError(f"class data is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ValueError("class data must be a JSON object")
    name = doc.get("group", "")
    order = _parse_int(doc.get("order"), "group order")
    if order < 1:
        raise ValueError(f"group order must be positive, got {order}")
    classes = doc.get("classes")
    if not isinstance(classes, list) or not classes:
        raise ValueError("classes must be a nonempty list")
    names, sizes = [], []
    for i, c in enumerate(classes):
        if not isinstance(c, dict) or "name" not in c or "size" not in c:
            raise ValueError(f"class #{i} must be an object with name and size")
        cname = str(c["name"])
        size = _parse_int(c["size"], f"size of class {cname!r}")
        if size < 1:
            raise ValueError(f"class {cname!r} has nonpositive size {size}")
        if order % size:
            raise ValueError(
                f"class {cname!r} size {size} does not divide group order {order}"
            )
        names.append(cname)
        sizes.append(size)
    if sum(sizes) != order:
        raise ValueError(f"class sizes sum to {sum(sizes)}, group order is {order}")
    k = len(sizes)
    table = None
    if doc.get("table") is not None:
        rows = doc["table"]
        if not isinstance(rows, list) or len(rows) != k:
            raise ValueError(f"table must have {k} rows (one per character)")
        parsed = []
        for i, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != k:
                raise ValueError(f"table row {i} must have {k} entries")
            parsed.append(tuple(
                _parse_entry(v, i, j) for j, v in enumerate(row)
            ))
        table = tuple(parsed)
        for cname, size, col in zip(names, sizes, zip(*table)):
            got = sum(v * v for v in col)
            want = order // size
            if got != want:
                raise ValueError(
                    f"column orthogonality fails at class {cname!r}:"
                    f" sum of squares {got}, expected {want}"
                )
    return ClassData(
        group_name=name, order=order,
        class_names=tuple(names), class_sizes=tuple(sizes), table=table,
    )


def default_omega(data: ClassData) -> list[int]:
    """Indices of the larger-than-average classes: k*size >= |G|, ties in."""
    k = data.num_classes
    return [j for j, s in enumerate(data.class_sizes) if k * s >= data.order]


class PropositionReport(NamedTuple):
    """Q, R, the lower bound Q - R, and exact P(G) when a table exists."""
    q: Fraction
    r: Fraction
    lower_bound: Fraction
    exact_p: Fraction | None
    omega_names: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "q": rational_json(self.q),
            "r": rational_json(self.r),
            "lower_bound": rational_json(self.lower_bound),
            "exact_p": rational_json(self.exact_p),
            "omega_names": list(self.omega_names),
        }


def proposition_bound(data: ClassData, omega) -> PropositionReport:
    """Bound report for the given class indices.

    exact P(G) = sum over classes K of |K| * (zero entries in column K),
    divided by k*|G|; the sandwich is asserted whenever it is computed.
    """
    k = data.num_classes
    idx = sorted(set(omega))
    for j in idx:
        if not 0 <= j < k:
            raise ValueError(f"class index {j} out of range for k={k}")
    q = Fraction(sum(data.class_sizes[j] for j in idx), data.order)
    r = Fraction(len(idx), k)
    lower = q - r
    exact = None
    if data.table is not None:
        weighted = sum(
            size * col.count(0)
            for size, col in zip(data.class_sizes, zip(*data.table))
        )
        exact = Fraction(weighted, k * data.order)
        if not (1 >= exact >= lower):
            raise AssertionError(
                f"bound violated for {data.group_name!r}: P={exact}, Q-R={lower}"
            )
    return PropositionReport(
        q=q, r=r, lower_bound=lower, exact_p=exact,
        omega_names=tuple(data.class_names[j] for j in idx),
    )


class OmegaCheckRecord(NamedTuple):
    """Outcome of maximizing Q - R over subsets of classes."""
    method: str
    subsets_checked: int
    max_value: Fraction
    default_value: Fraction
    default_is_max: bool

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "subsets_checked": self.subsets_checked,
            "max_value": rational_json(self.max_value),
            "default_value": rational_json(self.default_value),
            "default_is_max": self.default_is_max,
        }


def symmetric_group_json(n: int, cap: int | None = None) -> dict:
    """Class data of S_n (with its full character table) in the generic
    input format, names and cells as in its to_json_dict, all numbers as
    decimal strings. Round-trips through load_class_data.
    """
    from . import characters as ch
    from . import partitions as pt

    tbl = ch.character_table(n, cap)
    doc = tbl.to_json_dict()
    return {
        "group": f"symmetric-{n}",
        "order": str(factorial(n)),
        "classes": [
            {"name": name, "size": str(pt.class_size(mu))}
            for name, mu in zip(doc["classes"], tbl.classes)
        ],
        "table": doc["values"],
    }


EXHAUSTIVE_LIMIT = 20
SAMPLED_SUBSETS = 1 << 17


def best_omega_check(data: ClassData) -> OmegaCheckRecord:
    """Maximize Q - R over subsets of classes and compare with default_omega.

    Q - R = sum over chosen classes of w_K/(k*|G|) with integer weights
    w_K = k*size(K) - |G|, so subsets are scanned with integer arithmetic
    only. k <= 20 is exhaustive (Gray-code single-flip updates). Larger k
    scans SAMPLED_SUBSETS subsets of Random(0), one getrandbits(1) per class
    in class order: SAMPLED_SUBSETS * k draws, with no cap. That scan can
    never change the result: best starts at default_w, the sum of the
    nonnegative weights, which bounds every subset sum, so the sampled
    branch always reports max_value = default_value (the greedy maximum).
    """
    k = data.num_classes
    scale = k * data.order
    weights = [k * s - data.order for s in data.class_sizes]
    default_w = sum(w for w in weights if w >= 0)
    if k <= EXHAUSTIVE_LIMIT:
        best = acc = mask = 0  # best starts at the empty subset
        for i in range(1, 1 << k):
            flip = (i & -i).bit_length() - 1
            mask ^= 1 << flip
            acc += weights[flip] if mask >> flip & 1 else -weights[flip]
            if acc > best:
                best = acc
        checked = 1 << k
        method = "exhaustive"
    else:
        bits = random.Random(0).getrandbits
        best = max(0, default_w)
        for _ in range(SAMPLED_SUBSETS):
            acc = sum(compress(weights, map(bits, repeat(1, k))))
            if acc > best:
                best = acc
        checked = SAMPLED_SUBSETS
        method = "sampled"
    return OmegaCheckRecord(
        method=method,
        subsets_checked=checked,
        max_value=Fraction(best, scale),
        default_value=Fraction(default_w, scale),
        default_is_max=default_w == best,
    )


class GroupReport(NamedTuple):
    """The group subcommand's report on class data: the bound for the
    default Omega and, when it was run, the subset check."""
    data: ClassData
    bound: PropositionReport
    check: OmegaCheckRecord | None

    def to_text(self) -> str:
        data, rep, check = self
        lines = [
            f"group {data.group_name!r}: order {data.order}, {data.num_classes} classes",
            f"default Omega ({len(rep.omega_names)} classes): {', '.join(rep.omega_names)}",
            f"Q = {rational_text(rep.q)}",
            f"R = {rational_text(rep.r)}",
            f"lower bound Q - R = {rational_text(rep.lower_bound)}",
        ]
        if rep.exact_p is not None:
            lines.append(f"exact P = {rational_text(rep.exact_p)}")
            lines.append("bound check 1 >= P >= Q - R: OK")
        if check is not None:
            lines.append(
                f"max of Q - R over subsets ({check.method},"
                f" {check.subsets_checked} checked) = {rational_text(check.max_value)};"
                f" default attains it: {check.default_is_max}"
            )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        body = {"group": self.data.group_name, "num_classes": self.data.num_classes,
                "report": self.bound.to_json_dict()}
        if self.check is not None:
            body["omega_check"] = self.check.to_json_dict()
        return body


def group_report(data: ClassData, check: bool = False) -> GroupReport:
    """The bound for default_omega(data), with best_omega_check if check."""
    return GroupReport(data, proposition_bound(data, default_omega(data)),
                       best_omega_check(data) if check else None)
