"""Correctness checks for every command the benchmark runs.

Exact outputs are compared with SHA-256 digests recorded at the commit that
introduced the benchmark (``expected.json``). On top of that, checks that do
not reuse snchar code:

* the README quick-start commands print exactly the README console block;
* the column sums of squares of the ``table 20`` CSV equal z_mu, computed
  here from the class label;
* ``mc-pzero 20`` lies within 5 standard errors of the exact P_20;
* the ``goncharov`` KS distance lies within a DKW band (failure chance
  1e-6) of the exact KS distance of the lattice law, which is computed here
  from the law of the number of cycles, a sum of Bernoulli(1/i);
* ``bound`` reports are internally consistent and p_n matches a count made
  here.
"""

import hashlib
import json
import math
import re
from fractions import Fraction
from pathlib import Path

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def centralizer_order(parts) -> int:
    z = 1
    for i in set(parts):
        m = parts.count(i)
        z *= i ** m * math.factorial(m)
    return z


def partition_count(n: int) -> int:
    """p_n by the coin-change recurrence over part sizes."""
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


def _parse_label(label: str) -> list[int]:
    return [int(p) for p in label.split("-")]


def check_table_orthogonality(csv_text: str, n: int) -> str | None:
    lines = csv_text.splitlines()
    header = lines[0].split(",")
    classes = header[1:]
    if header[0] != "shape" or len(classes) != partition_count(n):
        return f"table {n}: header has {len(classes)} classes"
    sums = [0] * len(classes)
    rows = 0
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(classes) + 1:
            return f"table {n}: row {cells[0]!r} has {len(cells) - 1} entries"
        for j, v in enumerate(cells[1:]):
            x = int(v)
            sums[j] += x * x
        rows += 1
    if rows != len(classes):
        return f"table {n}: {rows} rows for {len(classes)} classes"
    for label, s in zip(classes, sums):
        parts = _parse_label(label)
        if sum(parts) != n or s != centralizer_order(parts):
            return f"table {n}: column {label} sums squares to {s}"
    return None


_MC = re.compile(
    r"P_(\d+) estimate = (\S+) \+/- (\S+) \((\d+) samples, seed (-?\d+)\)\n\Z"
)


def check_mc_pzero(text: str, n: int, samples: int, seed: int) -> str | None:
    m = _MC.match(text)
    if not m:
        return f"mc-pzero {n}: unexpected output {text[:80]!r}"
    est, se = float(m[2]), float(m[3])
    if (int(m[1]), int(m[4]), int(m[5])) != (n, samples, seed):
        return f"mc-pzero {n}: echoes n/samples/seed {m[1]}/{m[4]}/{m[5]}"
    zeros = round(est * samples)
    if zeros / samples != est or not 0 <= zeros <= samples:
        return f"mc-pzero {n}: estimate {est} is not a count over {samples}"
    if not math.isclose(se, math.sqrt(est * (1 - est) / samples), rel_tol=1e-12):
        return f"mc-pzero {n}: standard error {se} inconsistent with {est}"
    exact = EXPECTED["exact_pzero"].get(str(n))
    if exact is not None:
        p = float(Fraction(exact))
        tol = 5 * math.sqrt(p * (1 - p) / samples)
        if abs(est - p) > tol:
            return f"mc-pzero {n}: {est} is more than 5 SE from exact {p}"
    return None


def lattice_ks(n: int) -> float:
    """KS distance from the law of (K - log n)/sqrt(2 log n), K the number of
    cycles of a uniform permutation of n, to the CDF (1 + erf x)/2."""
    width = 64 + int(4 * math.log(n))  # mass beyond this is far below 1e-15
    law = [1.0] + [0.0] * width
    for i in range(1, n + 1):
        q = 1.0 / i
        for k in range(min(i, width), 0, -1):
            law[k] = law[k] * (1.0 - q) + law[k - 1] * q
        law[0] *= 1.0 - q
    center, scale = math.log(n), math.sqrt(2.0 * math.log(n))
    below = dist = 0.0
    for k, mass in enumerate(law):
        f = 0.5 * (1.0 + math.erf((k - center) / scale))
        dist = max(dist, abs(below - f), abs(below + mass - f))
        below += mass
    return dist


_GONCHAROV = re.compile(
    r"cycle counts at n=(\d+): (\d+) samples, seed (-?\d+)\n"
    r"KS distance to limit law = (\S+)\n\Z"
)


def check_goncharov(text: str, n: int, samples: int, seed: int) -> str | None:
    m = _GONCHAROV.match(text)
    if not m or (int(m[1]), int(m[2]), int(m[3])) != (n, samples, seed):
        return f"goncharov {n}: unexpected output {text[:80]!r}"
    band = math.sqrt(math.log(2 / 1e-6) / (2 * samples))
    exact = lattice_ks(n)
    if abs(float(m[4]) - exact) > band:
        return f"goncharov {n}: KS {m[4]} not within {band:.4f} of exact {exact:.4f}"
    return None


def check_bound(text: str, n: int) -> str | None:
    fields = dict(line.rsplit(" = ", 1) for line in text.splitlines()[:6])
    frac = {k: Fraction(v.split(" ")[0]) for k, v in fields.items()
            if k.startswith(("Q_n", "R_n", "lower"))}
    pn, omega = int(fields["p_n"]), int(fields["|Omega|"])
    if int(fields["n"]) != n or pn != partition_count(n):
        return f"bound {n}: p_n = {pn}"
    if frac["R_n = |Omega|/p_n"] != Fraction(omega, pn):
        return f"bound {n}: R_n is not |Omega|/p_n"
    if frac["lower bound Q_n - R_n"] != frac["Q_n"] - frac["R_n = |Omega|/p_n"]:
        return f"bound {n}: lower bound is not Q_n - R_n"
    return None


class Checker:
    """Checks command results; verdicts are cached by output digest, so a
    repeated pass costs only the hashing."""

    def __init__(self):
        self._verdicts: dict[tuple, str | None] = {}

    def check(self, args: list[str], code: int, out: bytes, file: bytes | None) -> str | None:
        """None if the result is correct, else what is wrong with it."""
        if code != 0:
            return f"{' '.join(args)}: exit code {code}"
        key = (tuple(args), sha256(out), None if file is None else sha256(file))
        if key not in self._verdicts:
            try:
                self._verdicts[key] = self._check(args, out, key)
            except (ValueError, KeyError, IndexError) as e:
                self._verdicts[key] = f"{' '.join(args)}: malformed output ({e!r})"
        return self._verdicts[key]

    def _check(self, args, out, key) -> str | None:
        cmd = " ".join(args)
        try:
            text = out.decode("utf-8")
        except UnicodeDecodeError:
            return f"{cmd}: output is not UTF-8"
        want = EXPECTED["digests"].get(cmd)
        if want is not None:
            if key[1] != want["stdout"] or key[2] != want.get("file"):
                return f"{cmd}: output differs from the recorded digest"
        readme = EXPECTED["readme_quickstart"].get(cmd)
        if readme is not None and text != readme:
            return f"{cmd}: output differs from the README console block"
        sub, rest = args[0], args[1:]
        if sub == "--help":
            return None if text.startswith("usage: snchar") else "--help: no usage line"
        if sub == "table" and rest[0] == "20":
            return check_table_orthogonality(text, 20)
        if sub == "bound":
            return check_bound(text, int(rest[0]))
        if sub in ("mc-pzero", "goncharov"):
            n, samples = int(rest[0]), int(rest[rest.index("--samples") + 1])
            seed = int(rest[rest.index("--seed") + 1])
            check = check_mc_pzero if sub == "mc-pzero" else check_goncharov
            return check(text, n, samples, seed)
        if want is None and readme is None:
            return f"{cmd}: no expected output recorded"
        return None
