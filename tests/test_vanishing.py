import json
import math
import random
from fractions import Fraction

import pytest
import scipy.integrate
import scipy.special
import scipy.stats
from hypothesis import example, given, strategies as st

import oracles as orc
from snchar import partitions as pt
from snchar import vanishing as vn

SEED = 424242


def _threshold_reference(n, spec):
    # smallest admissible first part, found by linear scan rather than
    # the rounding arithmetic min_first_part uses
    f = math.log(n) if spec.f_mode == "log" else spec.f_const
    x = Fraction(spec.c * math.sqrt(n) * (math.log(n) + f))
    k = 1
    while not (k > x if spec.strict else k >= x):
        k += 1
    return k


def omega_specs():
    return st.builds(
        vn.OmegaSpec,
        c=st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
        f_mode=st.sampled_from(["log", "const"]),
        f_const=st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
        strict=st.booleans(),
    )


# The two edges of the threshold t for every n in 2..30: t = 1 (Omega is
# every partition) and t > n (Omega is empty).
T_ONE = vn.OmegaSpec(c=0.05, f_mode="const")
T_PAST_N = vn.OmegaSpec(c=3.0)


class TestOmegaSpec:
    def test_default_constant(self):
        assert vn.DEFAULT_C == pytest.approx(0.3898, abs=2e-4)
        spec = vn.OmegaSpec()
        assert spec.c == vn.DEFAULT_C
        assert spec.f_mode == "log"
        assert not spec.strict

    def test_validation(self):
        with pytest.raises(ValueError):
            vn.OmegaSpec(c=0.0)
        with pytest.raises(ValueError):
            vn.OmegaSpec(c=-1.0)
        with pytest.raises(ValueError):
            vn.OmegaSpec(f_mode="linear")

    def test_default_threshold_n20(self):
        # 0.38985... * sqrt(20) * 2*log(20) = 10.44..., rounded up
        assert vn.OmegaSpec().min_first_part(20) == 11

    def test_tiny_c_threshold_is_one(self):
        assert vn.OmegaSpec(c=1e-12).min_first_part(5) == 1

    def test_n_below_two_rejected(self):
        with pytest.raises(ValueError):
            vn.OmegaSpec().min_first_part(1)

    @given(st.integers(min_value=2, max_value=40), omega_specs())
    def test_threshold_rounding(self, n, spec):
        t = spec.min_first_part(n)
        assert t == _threshold_reference(n, spec)
        loose = vn.OmegaSpec(c=spec.c, f_mode=spec.f_mode,
                             f_const=spec.f_const, strict=False)
        assert t >= loose.min_first_part(n)
        assert t <= loose.min_first_part(n) + 1


class TestOmegaSet:
    def test_huge_c_empty(self):
        assert orc.omega_set(5, vn.OmegaSpec(c=10.0)) == []

    def test_tiny_c_everything(self):
        got = orc.omega_set(5, vn.OmegaSpec(c=1e-12))
        assert got == pt.enumerate_partitions(5)
        assert len(got) == 7

    def test_default_n20_matches_enumeration_filter(self):
        got = orc.omega_set(20, vn.OmegaSpec(c=0.39))
        want = [l for l in pt.enumerate_partitions(20) if l[0] >= 11]
        assert got == want

    def test_cap(self):
        with pytest.raises(pt.CapExceededError):
            orc.omega_set(60, vn.OmegaSpec(), cap=10)

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            orc.omega_set(1, vn.OmegaSpec())

    @given(st.integers(min_value=2, max_value=24), omega_specs())
    def test_matches_filter_for_any_spec(self, n, spec):
        t = spec.min_first_part(n)
        want = [l for l in pt.enumerate_partitions(n) if l[0] >= t]
        assert orc.omega_set(n, spec) == want
        assert vn.omega_count(n, spec) == len(want)


class TestQOfOmega:
    def test_everything_sums_to_one(self):
        for n in range(2, 31, 7):
            assert orc.q_of_omega(n, pt.enumerate_partitions(n)) == 1

    def test_empty(self):
        assert orc.q_of_omega(5, []) == 0

    def test_single_class(self):
        assert orc.q_of_omega(3, [(3,)]) == Fraction(1, 3)

    def test_duplicates_ignored(self):
        assert orc.q_of_omega(3, [(3,), (3,)]) == Fraction(1, 3)

    def test_wrong_n_rejected(self):
        with pytest.raises(ValueError):
            orc.q_of_omega(4, [(3,)])


class TestClosedForm:
    """lemma_bound's Q_n (longest-cycle recurrence) and |Omega| (counting)
    against the enumeration oracle, exactly.
    """

    @staticmethod
    def check(n, spec):
        rep = vn.lemma_bound(n, spec)
        omega = orc.omega_set(n, spec)
        assert rep.q_n == orc.q_of_omega(n, omega)
        assert rep.omega_count == len(omega)

    def test_default_spec_up_to_40(self):
        for n in range(2, 41):
            self.check(n, vn.OmegaSpec())

    @pytest.mark.parametrize("n", [50, 60])
    def test_default_spec_large_n(self, n):
        self.check(n, vn.OmegaSpec())

    @given(st.integers(min_value=2, max_value=30), omega_specs())
    @example(2, T_ONE)
    @example(30, T_ONE)
    @example(2, T_PAST_N)
    @example(30, T_PAST_N)
    def test_any_spec(self, n, spec):
        self.check(n, spec)

    def test_threshold_edges(self):
        for n in range(2, 31):
            assert T_ONE.min_first_part(n) == 1
            rep = vn.lemma_bound(n, T_ONE)
            assert rep.q_n == 1 and rep.omega_count == rep.p_n
            assert T_PAST_N.min_first_part(n) > n
            rep = vn.lemma_bound(n, T_PAST_N)
            assert rep.q_n == 0 and rep.omega_count == 0

    @pytest.mark.parametrize("spec", [
        vn.OmegaSpec(f_mode="const", f_const=1e308),
        vn.OmegaSpec(c=1e19),
    ])
    def test_threshold_past_a_machine_word(self, spec):
        # t - 1 >= 2^63 is too long for any window; no cycle reaches t > n
        assert spec.min_first_part(12) - 1 >= 2**63
        assert vn.omega_probability(12, spec) == 0
        assert vn.omega_count(12, spec) == 0

    def test_no_cap_without_exact(self, monkeypatch):
        # p_2000 is about 4.7e45: the bound enumerates nothing, so a cap
        # of 10 does not apply unless the exact table is asked for
        monkeypatch.setenv(pt.CAP_ENV_VAR, "10")
        rep = vn.lemma_bound(2000)
        assert 0.98 < rep.lower_bound < 1
        with pytest.raises(pt.CapExceededError):
            vn.lemma_bound(5, compute_exact=True)


class TestExactPzero:
    def test_anchors_against_oracle(self):
        for n in (1, 2, 3):
            assert vn.exact_pzero(n) == orc.oracle_pzero(n)
        assert vn.exact_pzero(1) == 0
        assert vn.exact_pzero(2) == 0
        assert vn.exact_pzero(3) == Fraction(1, 6)

    def test_n5_against_oracle(self):
        assert vn.exact_pzero(5) == orc.oracle_pzero(5)
        assert vn.exact_pzero(5) == Fraction(109, 420)

    def test_invalid(self):
        with pytest.raises(ValueError):
            vn.exact_pzero(0)

    def test_n24(self):
        assert vn.exact_pzero(24) == Fraction(
            15417436616696634048941119, 18792427552497156096000000
        )


class TestLemmaBound:
    def test_vacuous_omega(self):
        rep = vn.lemma_bound(3, vn.OmegaSpec(c=100.0), compute_exact=True)
        assert rep.omega_count == 0
        assert rep.q_n == 0 and rep.r_n == 0 and rep.lower_bound == 0
        assert rep.exact_p == Fraction(1, 6)

    def test_full_omega(self):
        rep = vn.lemma_bound(3, vn.OmegaSpec(c=1e-12), compute_exact=True)
        assert rep.q_n == 1 and rep.r_n == 1
        assert rep.lower_bound == 0

    def test_sandwich_exact_small_n(self):
        for n in range(2, 13):
            rep = vn.lemma_bound(n, compute_exact=True)
            assert 1 >= rep.exact_p >= rep.lower_bound

    def test_without_exact(self):
        rep = vn.lemma_bound(25)
        assert rep.exact_p is None
        assert rep.p_n == pt.partition_count(25)
        assert rep.r_n == Fraction(rep.omega_count, rep.p_n)
        assert rep.lower_bound == rep.q_n - rep.r_n

    def test_n1_rejected(self):
        with pytest.raises(ValueError):
            vn.lemma_bound(1)

    def test_json_schema(self):
        rep = vn.lemma_bound(6, compute_exact=True)
        doc = rep.to_json_dict()
        assert set(doc) == {
            "n", "p_n", "omega_count", "q_n", "r_n", "lower_bound", "exact_p",
        }
        assert doc["n"] == 6
        assert doc["p_n"] == "11"
        assert isinstance(doc["omega_count"], str)
        for key in ("q_n", "r_n", "lower_bound", "exact_p"):
            assert set(doc[key]) == {"num", "den"}
            assert int(doc[key]["den"]) > 0
        assert json.loads(json.dumps(doc)) == doc

    def test_json_null_exact(self):
        assert vn.lemma_bound(6).to_json_dict()["exact_p"] is None

    @given(st.integers(min_value=2, max_value=10), omega_specs())
    def test_sandwich_any_spec(self, n, spec):
        rep = vn.lemma_bound(n, spec, compute_exact=True)
        assert 1 >= rep.exact_p >= rep.lower_bound
        assert 0 <= rep.q_n <= 1
        assert 0 <= rep.r_n <= 1


class TestMonteCarlo:
    def test_n1_always_nonzero(self):
        s = vn.montecarlo_pzero(1, 200, SEED)
        assert s.estimate == 0.0
        assert s.std_error == 0.0

    def test_n3_close_to_exact(self):
        s = vn.montecarlo_pzero(3, 20_000, SEED)
        exact = float(Fraction(1, 6))
        se = math.sqrt(exact * (1 - exact) / s.samples)
        assert abs(s.estimate - exact) < 5 * se

    def test_deterministic(self):
        a = vn.montecarlo_pzero(6, 3000, SEED)
        b = vn.montecarlo_pzero(6, 3000, SEED)
        assert a == b

    def test_validation(self):
        with pytest.raises(ValueError):
            vn.montecarlo_pzero(0, 10)
        with pytest.raises(ValueError):
            vn.montecarlo_pzero(3, 0)

    def test_summary_fields(self):
        s = vn.montecarlo_pzero(4, 500, SEED)
        assert s.samples == 500
        assert s.seed == SEED
        assert s.extra["n"] == 4
        assert s.estimate == s.extra["zeros"] / 500


class TestLimitCdf:
    def test_center(self):
        assert vn.limit_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_symmetry_grid(self):
        for i in range(100):
            x = -3.0 + i * 0.06
            assert vn.limit_cdf(x) + vn.limit_cdf(-x) == pytest.approx(1.0, abs=1e-12)

    def test_monotone(self):
        xs = [-6 + 0.05 * i for i in range(241)]
        ys = [vn.limit_cdf(x) for x in xs]
        assert all(a <= b for a, b in zip(ys, ys[1:]))

    def test_against_quadrature(self):
        # integrate the density from 0 (where the CDF is exactly 1/2);
        # the finite interval keeps quad's error estimate tight
        for x in (-2.0, -0.7, 0.3, 1.0, 2.5):
            area, err = scipy.integrate.quad(
                lambda t: math.exp(-t * t) / math.sqrt(math.pi), 0.0, x
            )
            assert err < 1e-13
            assert vn.limit_cdf(x) == pytest.approx(0.5 + area, abs=1e-12)

    def test_tails(self):
        assert vn.limit_cdf(8.0) == pytest.approx(1.0, abs=1e-15)
        assert vn.limit_cdf(-8.0) == pytest.approx(0.0, abs=1e-15)


class TestKsDistance:
    def test_hand_cases(self):
        uniform = lambda x: min(1.0, max(0.0, x))
        assert vn.ks_distance([0.5], uniform) == pytest.approx(0.5)
        assert vn.ks_distance([0.1, 0.9], uniform) == pytest.approx(0.4)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            vn.ks_distance([], vn.limit_cdf)

    def test_matches_per_sample_loop(self):
        # the same floats as the loop that evaluates the cdf once per sample,
        # on tied and untied values and on the lattice of goncharov's values
        rnd = random.Random(SEED)
        uniform = lambda x: min(1.0, max(0.0, x))
        lattice = vn.goncharov_experiment(100, 3000, SEED).normalized_values
        assert len(set(lattice)) < 20
        cases = [
            ([rnd.random() for _ in range(500)], uniform),
            ([rnd.randrange(7) / 6 for _ in range(500)], uniform),
            ([0.5] * 9, uniform),
            ([rnd.gauss(0, 1) for _ in range(300)], vn.limit_cdf),
            (lattice, vn.limit_cdf),
            (lattice[:1], vn.limit_cdf),
        ]
        for values, cdf in cases:
            assert vn.ks_distance(values, cdf) == orc.reference_ks_distance(values, cdf)
        assert vn.ks_distance(iter(lattice), vn.limit_cdf) == \
            orc.reference_ks_distance(lattice, vn.limit_cdf)

    def test_matches_scipy(self):
        g = vn.goncharov_experiment(50, 400, SEED)
        want = scipy.stats.kstest(
            list(g.normalized_values),
            lambda xs: 0.5 * (1.0 + scipy.special.erf(xs)),
        ).statistic
        assert g.ks_distance == pytest.approx(want, abs=1e-12)


class TestGoncharov:
    def test_shape_and_determinism(self):
        a = vn.goncharov_experiment(30, 600, SEED)
        b = vn.goncharov_experiment(30, 600, SEED)
        assert a == b
        assert a.n == 30 and a.sample_count == 600 and a.seed == SEED
        assert len(a.normalized_values) == 600

    def test_n2_mean_cycle_count(self):
        g = vn.goncharov_experiment(2, 20_000, SEED)
        center, scale = math.log(2), math.sqrt(2 * math.log(2))
        ms = [v * scale + center for v in g.normalized_values]
        # m is 1 or 2, each with probability 1/2
        assert set(round(m) for m in ms) == {1, 2}
        se = 0.5 / math.sqrt(len(ms))
        assert abs(sum(ms) / len(ms) - 1.5) < 5 * se

    def test_cycle_count_law_matches_exact(self):
        n, samples = 40, 40_000
        g = vn.goncharov_experiment(n, samples, SEED)
        center, scale = math.log(n), math.sqrt(2 * math.log(n))
        counts = {}
        for v in g.normalized_values:
            m = round(v * scale + center)
            counts[m] = counts.get(m, 0) + 1
        law = orc.parts_count_law(n)
        assert sum(law.values()) == 1
        for m, p in law.items():
            pf = float(p)
            if pf < 1e-6:
                continue
            se = math.sqrt(pf * (1 - pf) / samples)
            assert abs(counts.get(m, 0) / samples - pf) < 5 * se, m

    def test_validation(self):
        with pytest.raises(ValueError):
            vn.goncharov_experiment(1, 10)
        with pytest.raises(ValueError):
            vn.goncharov_experiment(10, 0)


class TestLongCycle:
    def test_exact_n3_value(self):
        # threshold 3/(2 log 3) ~ 1.37: only the identity class fails
        counted = sum(
            Fraction(1, pt.centralizer_order(lam))
            for lam in pt.enumerate_partitions(3)
            if lam[0] >= 3 / (2 * math.log(3))
        )
        assert counted == Fraction(5, 6)
        s = vn.long_cycle_frequency(3, 30_000, SEED)
        se = math.sqrt(5 / 6 * 1 / 6 / s.samples)
        assert abs(s.estimate - 5 / 6) < 5 * se

    def test_sampler_vs_exact_enumeration(self):
        for n in (4, 7):
            threshold = n / (2 * math.log(n))
            exact = float(sum(
                Fraction(1, pt.centralizer_order(lam))
                for lam in pt.enumerate_partitions(n)
                if lam[0] >= threshold
            ))
            s = vn.long_cycle_frequency(n, 20_000, SEED)
            se = math.sqrt(exact * (1 - exact) / s.samples) or 1e-9
            assert abs(s.estimate - exact) < 5 * se, n

    def test_validation(self):
        with pytest.raises(ValueError):
            vn.long_cycle_frequency(2, 10)
        with pytest.raises(ValueError):
            vn.long_cycle_frequency(10, 0)
