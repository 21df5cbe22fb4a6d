import math

import mpmath
import numpy as np
import pytest
import scipy.stats as sps
from hypothesis import given, settings, strategies as st

from figwasp.stats import (
    chi2_sf,
    friedman_mean_ranks,
    friedman_statistic,
    mid_ranks,
    wilcoxon_signed_rank,
)


# ---------------------------------------------------------------------------
# independent oracles


def counting_mid_ranks(values):
    values = np.asarray(values, dtype=float)
    return np.array([(values < v).sum() + ((values == v).sum() + 1) / 2.0 for v in values])


def wilcoxon_enumeration_oracle(a, b):
    """Exact two-sided p by enumerating all 2^n sign assignments."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = counting_mid_ranks(np.abs(d))
    t_plus = ranks[d > 0].sum()
    sums = np.zeros(1 << n)
    for mask in range(1 << n):
        total = 0.0
        for i in range(n):
            if mask >> i & 1:
                total += ranks[i]
        sums[mask] = total
    eps = 1e-9
    p_le = np.mean(sums <= t_plus + eps)
    p_ge = np.mean(sums >= t_plus - eps)
    return min(1.0, 2.0 * min(p_le, p_ge)), t_plus, ranks[d < 0].sum()


def friedman_counting_oracle(values):
    """Mean ranks via the counting definition, dense ordinals by scanning."""
    row_ranks = np.vstack([counting_mid_ranks(row) for row in values])
    mean_ranks = row_ranks.mean(axis=0)
    ordinals = np.array([1 + sum(1 for other in np.unique(mean_ranks) if other < m) for m in mean_ranks])
    return mean_ranks, ordinals


# ---------------------------------------------------------------------------


class TestWilcoxonInputs:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equally long"):
            wilcoxon_signed_rank(np.zeros(3), np.zeros(4))

    def test_rejects_two_dimensional_samples(self):
        with pytest.raises(ValueError, match="1-D"):
            wilcoxon_signed_rank(np.zeros((2, 3)), np.zeros((2, 3)))

    def test_rejects_single_pair(self):
        with pytest.raises(ValueError, match="at least two pairs"):
            wilcoxon_signed_rank(np.zeros(1), np.zeros(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_pairs(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            wilcoxon_signed_rank(np.array([1.0, bad, 3.0]), np.zeros(3))
        with pytest.raises(ValueError, match="non-finite"):
            wilcoxon_signed_rank(np.zeros(3), np.array([1.0, 2.0, bad]))


class TestFriedmanInputs:
    """Both Friedman functions make the same checks at their entry."""

    @pytest.mark.parametrize("friedman", [friedman_mean_ranks, friedman_statistic])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_a_non_finite_cell(self, friedman, bad):
        values = np.arange(6.0).reshape(3, 2)
        values[1, 0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            friedman(values)

    @pytest.mark.parametrize("friedman", [friedman_mean_ranks, friedman_statistic])
    def test_rejects_a_one_dimensional_array(self, friedman):
        with pytest.raises(ValueError, match="2-D"):
            friedman(np.arange(4.0))

    @pytest.mark.parametrize("friedman", [friedman_mean_ranks, friedman_statistic])
    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (1, 1), (0, 2)])
    def test_needs_two_problems_and_two_algorithms(self, friedman, shape):
        with pytest.raises(ValueError, match=">= 2 algorithms and >= 2 problems"):
            friedman(np.zeros(shape))


# The pre-numpy reference expressions: scipy.stats ranks and tails.


def scipy_normal(a, b):
    """T+, T- and the two-sided normal-approximation p."""
    d = a - b
    d = d[d != 0.0]
    ranks = sps.rankdata(np.abs(d), method="average")
    t_plus = float(ranks[d > 0].sum())
    z = (t_plus - ranks.sum() / 2.0) / np.sqrt(np.sum(ranks**2) / 4.0)
    return t_plus, float(ranks[d < 0].sum()), float(2.0 * sps.norm.sf(abs(z)))


def written(p):
    """A p-value as ``figwasp stats`` writes it."""
    return f"{p:.6E}"


def ulps_from(value, exact):
    """Distance of a double from a high-precision value, in units of the value's last place."""
    return float(abs(mpmath.mpf(value) - exact) / math.ulp(float(exact)))


def scipy_friedman(values):
    n_problems, k = values.shape
    mean_ranks = np.vstack([sps.rankdata(row, method="average") for row in values]).mean(axis=0)
    raw = 12.0 * n_problems / (k * (k + 1)) * np.sum((mean_ranks - (k + 1) / 2.0) ** 2)
    tie_sum = 0.0
    for row in values:
        _, counts = np.unique(row, return_counts=True)
        tie_sum += float(np.sum(counts.astype(float) ** 3 - counts))
    statistic = float(raw / (1.0 - tie_sum / (n_problems * k * (k**2 - 1))))
    return statistic, float(sps.chi2.sf(statistic, df=k - 1))


class TestMidRanks:
    @settings(deadline=None, max_examples=200)
    @given(values=st.lists(st.integers(-8, 8), min_size=1, max_size=50))
    def test_bit_equal_to_scipy_rankdata(self, values):
        values = np.array(values, dtype=float)
        ours = mid_ranks(values)
        ref = sps.rankdata(values, method="average")
        assert ours.dtype == ref.dtype
        assert ours.tobytes() == ref.tobytes()

    def test_signed_zeros_tie(self):
        assert list(mid_ranks(np.array([0.0, -0.0, 1.0]))) == [1.5, 1.5, 3.0]


class TestWilcoxon:
    def test_hand_ranked_fixture(self):
        # differences (+1, -2, +3, -4, +5): |d| ranks are 1..5, so the
        # positive ranks 1+3+5 = 9 and negative 2+4 = 6
        res = wilcoxon_signed_rank(np.array([1.0, -2, 3, -4, 5]), np.zeros(5))
        assert res.t_plus == 9.0
        assert res.t_minus == 6.0

    def test_identical_samples_raise_no_information(self):
        a = np.array([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="no information"):
            wilcoxon_signed_rank(a, a.copy())

    def test_zero_differences_dropped(self):
        a = np.array([1.0, 5.0, 3.0, 7.0])
        b = np.array([1.0, 4.0, 3.0, 9.0])
        res = wilcoxon_signed_rank(a, b)
        assert res.t_plus + res.t_minus == 3.0  # two nonzero pairs: 1 + 2

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), n=st.integers(2, 13))
    def test_exact_p_matches_enumeration_oracle(self, data, n):
        vals = st.integers(-6, 6)
        a = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)), dtype=float)
        b = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)), dtype=float)
        if np.all(a == b):
            return
        res = wilcoxon_signed_rank(a, b)
        p_oracle, t_plus_oracle, t_minus_oracle = wilcoxon_enumeration_oracle(a, b)
        assert res.t_plus == t_plus_oracle
        assert res.t_minus == t_minus_oracle
        assert res.p_value == pytest.approx(p_oracle, abs=1e-12)

    def test_exact_p_matches_scipy_without_ties(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            d = rng.normal(size=12)
            res = wilcoxon_signed_rank(d, np.zeros_like(d))
            ref = sps.wilcoxon(d, alternative="two-sided", mode="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    @settings(deadline=None, max_examples=80)
    @given(data=st.data(), n=st.integers(2, 40))
    def test_rank_sum_identity_and_symmetry(self, data, n):
        vals = st.floats(-100, 100, allow_nan=False)
        a = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
        b = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
        nz = int(np.sum(a != b))
        if nz == 0:
            return
        res = wilcoxon_signed_rank(a, b)
        assert res.t_plus + res.t_minus == pytest.approx(nz * (nz + 1) / 2, rel=1e-12)
        flipped = wilcoxon_signed_rank(b, a)
        assert flipped.t_plus == res.t_minus
        assert flipped.t_minus == res.t_plus
        assert flipped.p_value == pytest.approx(res.p_value, rel=1e-12)

    def test_normal_branch_matches_scipy_norm_sf(self):
        # T+ and T- are bit-equal to scipy's ranks; p (math.erfc, not
        # scipy's ndtr) agrees to 1e-12 and writes the same bytes
        rng = np.random.default_rng(20)
        for _ in range(200):
            n = int(rng.integers(21, 80))
            if rng.random() < 0.5:
                a, b = rng.integers(-6, 7, size=n).astype(float), rng.integers(-6, 7, size=n).astype(float)
            else:
                a, b = rng.normal(loc=rng.uniform(-1, 1), size=n), rng.normal(size=n)
            if np.sum(a != b) <= 20:
                continue
            res = wilcoxon_signed_rank(a, b)
            t_plus, t_minus, p = scipy_normal(a, b)
            assert (res.t_plus, res.t_minus) == (t_plus, t_minus)
            assert res.p_value == pytest.approx(p, rel=1e-12)
            assert written(res.p_value) == written(p)

    def test_large_sample_normal_branch(self):
        rng = np.random.default_rng(7)
        shift = rng.normal(loc=2.0, scale=0.5, size=40)
        res = wilcoxon_signed_rank(shift, np.zeros_like(shift))
        assert 0.0 <= res.p_value < 1e-6
        near_null = rng.normal(size=40)
        res2 = wilcoxon_signed_rank(near_null, np.zeros_like(near_null))
        assert 0.0 <= res2.p_value <= 1.0


class TestFriedmanRanks:
    def test_identical_columns_mean_rank(self):
        m = np.tile([[3.0, 3.0, 3.0]], (4, 1))
        mean_ranks, ordinals = friedman_mean_ranks(m)
        assert np.allclose(mean_ranks, 2.0)  # (k+1)/2 with k=3
        assert list(ordinals) == [1, 1, 1]

    def test_dominance_two_algorithms(self):
        values = np.column_stack([np.arange(10.0), np.arange(10.0) + 1.0])
        mean_ranks, ordinals = friedman_mean_ranks(values)
        assert list(mean_ranks) == [1.0, 2.0]
        assert list(ordinals) == [1, 2]

    def test_hand_computed_three_by_three(self):
        values = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [1.0, 2.0, 3.0]])
        mean_ranks, _ = friedman_mean_ranks(values)
        assert np.allclose(mean_ranks, [5 / 3, 5 / 3, 8 / 3])

    def test_shared_ordinals_are_dense(self):
        values = np.array(
            [
                [1.0, 1.0, 5.0, 9.0],
                [2.0, 2.0, 6.0, 7.0],
                [3.0, 3.0, 4.0, 8.0],
            ]
        )
        mean_ranks, ordinals = friedman_mean_ranks(values)
        assert mean_ranks[0] == mean_ranks[1]
        assert list(ordinals) == [1, 1, 2, 3]

    @settings(deadline=None, max_examples=60)
    @given(data=st.data(), rows=st.integers(2, 6), cols=st.integers(2, 6))
    def test_matches_counting_oracle(self, data, rows, cols):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(0, 8), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=float,
        )
        mean_ranks, ordinals = friedman_mean_ranks(values)
        oracle_ranks, oracle_ordinals = friedman_counting_oracle(values)
        assert np.array_equal(mean_ranks, oracle_ranks)
        assert np.array_equal(ordinals, oracle_ordinals)

    @settings(deadline=None, max_examples=40)
    @given(data=st.data(), rows=st.integers(2, 5), cols=st.integers(2, 5))
    def test_invariant_under_monotone_row_transform(self, data, rows, cols):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(st.integers(-5, 5), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            ),
            dtype=float,
        )
        base, _ = friedman_mean_ranks(values)
        transformed, _ = friedman_mean_ranks(np.exp(values))
        assert np.array_equal(base, transformed)


class TestFriedmanStatistic:
    def test_identical_columns_zero_statistic(self):
        m = np.tile([[1.0, 1.0, 1.0]], (5, 1))
        statistic, p = friedman_statistic(m)
        assert statistic == 0.0
        assert p == 1.0

    def test_dominance_closed_form(self):
        # k=2, N=10, no ties: chi2 = 12*10/(2*3) * ((1-1.5)^2 + (2-1.5)^2) = 10
        values = np.column_stack([np.arange(10.0), np.arange(10.0) + 1.0])
        statistic, p = friedman_statistic(values)
        assert statistic == pytest.approx(10.0, rel=1e-12)
        assert p == pytest.approx(sps.chi2.sf(10.0, df=1), rel=1e-12)

    def test_tie_correction_hand_fixture(self):
        values = np.array([[1.0, 1.0, 2.0], [2.0, 1.0, 1.0], [1.0, 2.0, 2.0]])
        # independent computation, written out from the definitions
        ranks = np.vstack([counting_mid_ranks(r) for r in values])
        mean_ranks = ranks.mean(axis=0)
        raw = 12 * 3 / (3 * 4) * np.sum((mean_ranks - 2.0) ** 2)
        ties = 0.0
        for row in values:
            _, counts = np.unique(row, return_counts=True)
            ties += float(np.sum(counts**3 - counts))
        corrected = raw / (1.0 - ties / (3 * 3 * 8))
        statistic, _ = friedman_statistic(values)
        assert statistic == pytest.approx(corrected, rel=1e-12)

    def test_matches_scipy_rankdata_and_chi2_sf(self):
        # the statistic is bit-equal to scipy's ranks; p (closed-form tail,
        # not scipy's chdtrc) agrees to 1e-12 and writes the same bytes
        rng = np.random.default_rng(21)
        for _ in range(200):
            rows, cols = int(rng.integers(2, 30)), int(rng.integers(2, 15))
            if rng.random() < 0.5:
                values = rng.integers(0, 5, size=(rows, cols)).astype(float)
            else:
                values = rng.normal(size=(rows, cols))
            if all(np.all(row == row[0]) for row in values):
                continue
            statistic, p = friedman_statistic(values)
            ref_statistic, ref_p = scipy_friedman(values)
            assert statistic == ref_statistic
            assert p == pytest.approx(ref_p, rel=1e-12)
            assert written(p) == written(ref_p)

    def test_matches_scipy_without_ties(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(12, 4))
        statistic, p = friedman_statistic(values)
        ref = sps.friedmanchisquare(*[values[:, j] for j in range(4)])
        assert statistic == pytest.approx(ref.statistic, rel=1e-12)
        assert p == pytest.approx(ref.pvalue, rel=1e-12)

    @settings(deadline=None, max_examples=30)
    @given(data=st.data(), rows=st.integers(2, 5), cols=st.integers(2, 5))
    def test_invariant_under_column_permutation(self, data, rows, cols):
        values = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(0, 9, allow_nan=False), min_size=cols, max_size=cols),
                    min_size=rows,
                    max_size=rows,
                )
            )
        )
        statistic, _ = friedman_statistic(values)
        perm = np.roll(np.arange(cols), 1)
        permuted, _ = friedman_statistic(values[:, perm])
        assert permuted == pytest.approx(statistic, rel=1e-9, abs=1e-12)


class TestTails:
    """Both p-value tails against 200-bit mpmath."""

    @staticmethod
    def exact_chi2_sf(x, df):
        with mpmath.workprec(200):
            return mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(x) / 2, mpmath.inf, regularized=True)

    @staticmethod
    def tail_grid(df, rng):
        """x = 0, the body, and a log grid out to where p nears underflow."""
        return np.concatenate([[0.0], rng.uniform(0, 5 * df + 10, 40), np.geomspace(1e-6, 1400, 60)])

    @pytest.mark.parametrize("df", range(2, 25))
    def test_chi2_within_few_ulp(self, df):
        rng = np.random.default_rng(df)
        for x in self.tail_grid(df, rng):
            exact = self.exact_chi2_sf(x, df)
            if exact < 1e-300:
                continue
            assert ulps_from(chi2_sf(float(x), df), exact) <= 8, x

    @pytest.mark.parametrize("df", [1000, 1001, 1480, 1500, 2000, 2999, 3001])
    def test_chi2_large_df_relative_error(self, df):
        # beyond x = 1400 exp(-x/2) alone is subnormal or 0; the tail near
        # x = df is still about 1/2 (chi2_sf(1500, 1500) = 0.49514)
        for x in df * np.linspace(0.5, 2.0, 31):
            exact = self.exact_chi2_sf(x, df)
            if exact < 1e-300:
                continue
            assert abs(mpmath.mpf(chi2_sf(float(x), df)) - exact) <= 1e-12 * exact, x

    def test_chi2_one_df_is_erfc_at_rounded_root(self):
        # with df = 1 the tail is erfc(sqrt(x/2)); rounding sqrt(x/2) costs
        # about x/3 ULP far out, as it does scipy's chdtrc, so the tail is
        # held to erfc at that rounded argument
        rng = np.random.default_rng(1)
        for x in self.tail_grid(1, rng):
            root = math.sqrt(x / 2.0)
            with mpmath.workprec(200):
                exact = mpmath.erfc(mpmath.mpf(root))
            if exact < 1e-300:
                continue
            assert ulps_from(chi2_sf(float(x), 1), exact) <= 3, x

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 7, 24, 25, 200])
    def test_chi2_finite_in_unit_interval_and_non_increasing(self, df):
        xs = np.concatenate([[0.0], np.geomspace(1e-6, 3000, 3000), [1e6, 1e300, 1e308]])
        p = np.array([chi2_sf(float(x), df) for x in xs])
        assert p[0] == 1.0
        assert np.all(np.isfinite(p)) and np.all((p >= 0.0) & (p <= 1.0))
        assert p[-1] == 0.0
        # where p is within rounding of 1, the sum of about df/2 terms can
        # land a few ULP either side of its true value; below that p never rises
        rises = np.diff(p) > 0
        assert not np.any(rises & (p[1:] < 1.0 - 1e-12))
        assert np.all(np.diff(p) <= df * 2.0**-52)

    def test_wilcoxon_normal_tail_within_few_ulp_at_rounded_argument(self):
        # p = erfc(|z| * sqrt(1/2)); rounding that product costs as much as
        # it does scipy's ndtr, so p is held to erfc at the rounded argument.
        # Shifts up to 3 sd with n up to 400 pairs reach |z| of about 17.
        rng = np.random.default_rng(22)
        for _ in range(200):
            n = int(rng.integers(21, 400))
            a, b = rng.normal(loc=rng.uniform(0, 3), size=n), rng.normal(size=n)
            res = wilcoxon_signed_rank(a, b)
            ranks = mid_ranks(np.abs(a - b))
            z = (res.t_plus - ranks.sum() / 2.0) / np.sqrt(np.sum(ranks**2) / 4.0)
            with mpmath.workprec(200):
                exact = mpmath.erfc(mpmath.mpf(abs(z) * math.sqrt(0.5)))
            if exact < 1e-300:
                continue
            assert ulps_from(res.p_value, exact) <= 3, z
