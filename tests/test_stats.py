import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emospeaker.stats import (
    ComparisonReport,
    StatsError,
    TwoSampleSummary,
    cohen_kappa,
    compare_performance,
    format_comparison_table,
    kappa_annotation,
    kappa_band,
    mean_performance,
    pooled_sd,
    relative_improvement,
    sample_sd,
    significant_at_005,
    t_statistic,
)


class TestMeanPerformance:
    def test_reference_sets(self):
        assert mean_performance([86.5, 64.5, 69, 73, 72.5, 73]) == 73.08
        assert mean_performance([81.5, 57.5, 61, 65.5, 67.5, 65]) == 66.33
        assert mean_performance([87.5, 77, 69.5, 75.5, 75, 76]) == 76.75

    def test_single_value_identity(self):
        assert mean_performance([42.5]) == 42.5

    def test_empty_rejected(self):
        with pytest.raises(StatsError):
            mean_performance([])


class TestRelativeImprovement:
    @pytest.mark.parametrize(
        "candidate,baseline,expected",
        [
            (77.0, 64.5, 19.38),
            (80.5, 69.0, 16.67),
            (84.0, 73.0, 15.07),
            (85.0, 72.5, 17.24),
            (84.5, 73.0, 15.75),
        ],
    )
    def test_reference_pairs(self, candidate, baseline, expected):
        assert relative_improvement(candidate, baseline) == expected

    def test_zero_baseline_rejected(self):
        with pytest.raises(StatsError):
            relative_improvement(50.0, 0.0)

    def test_no_change_is_zero(self):
        assert relative_improvement(73.0, 73.0) == 0.0


class TestPooledSd:
    def test_degenerate_zero(self):
        assert pooled_sd(TwoSampleSummary(1.0, 0.0, 2.0, 0.0, 10)) == 0.0

    def test_hand_value(self):
        # sqrt((9 + 16) / 25) = 1
        assert pooled_sd(TwoSampleSummary(0.0, 3.0, 0.0, 4.0, 25)) == pytest.approx(1.0)

    def test_headline_denominator(self):
        s = TwoSampleSummary(73.08, 7.36, 66.33, 8.25, 180)
        assert pooled_sd(s) == pytest.approx(0.8241, abs=5e-5)

    @given(
        sd1=st.floats(0.1, 50),
        sd2=st.floats(0.1, 50),
        n=st.integers(2, 1000),
        c=st.floats(0.1, 10),
    )
    @settings(max_examples=60, deadline=None)
    def test_scales_linearly_in_sd(self, sd1, sd2, n, c):
        base = pooled_sd(TwoSampleSummary(0, sd1, 0, sd2, n))
        scaled = pooled_sd(TwoSampleSummary(0, c * sd1, 0, c * sd2, n))
        assert scaled == pytest.approx(c * base, rel=1e-12)

    @given(sd1=st.floats(0.1, 50), sd2=st.floats(0.1, 50), n=st.integers(2, 1000))
    @settings(max_examples=60, deadline=None)
    def test_quadrupling_n_halves(self, sd1, sd2, n):
        base = pooled_sd(TwoSampleSummary(0, sd1, 0, sd2, n))
        quartered = pooled_sd(TwoSampleSummary(0, sd1, 0, sd2, 4 * n))
        assert quartered == pytest.approx(base / 2, rel=1e-12)

    def test_validation(self):
        with pytest.raises(StatsError):
            pooled_sd(TwoSampleSummary(0, -1.0, 0, 1.0, 10))
        with pytest.raises(StatsError):
            pooled_sd(TwoSampleSummary(0, 1.0, 0, 1.0, 1))


class TestTStatistic:
    def test_headline_value(self):
        t = t_statistic(TwoSampleSummary(73.08, 7.36, 66.33, 8.25, 180))
        assert t == pytest.approx(8.191, abs=0.01)

    def test_zero_at_equal_means(self):
        assert t_statistic(TwoSampleSummary(5.0, 1.0, 5.0, 2.0, 30)) == 0.0

    @given(
        m1=st.floats(-100, 100),
        m2=st.floats(-100, 100),
        sd1=st.floats(0.1, 20),
        sd2=st.floats(0.1, 20),
        n=st.integers(2, 500),
    )
    @settings(max_examples=60, deadline=None)
    def test_antisymmetric_under_swap(self, m1, m2, sd1, sd2, n):
        forward = t_statistic(TwoSampleSummary(m1, sd1, m2, sd2, n))
        backward = t_statistic(TwoSampleSummary(m2, sd2, m1, sd1, n))
        assert forward == pytest.approx(-backward, abs=1e-9)

    def test_monotone_in_mean1(self):
        ts = [
            t_statistic(TwoSampleSummary(m, 2.0, 50.0, 3.0, 40))
            for m in (50.0, 55.0, 60.0, 80.0)
        ]
        assert ts == sorted(ts)
        flags = [significant_at_005(t) for t in ts]
        assert flags == sorted(flags)  # once significant, stays significant

    def test_zero_pooled_sd_rejected(self):
        with pytest.raises(StatsError):
            t_statistic(TwoSampleSummary(1.0, 0.0, 2.0, 0.0, 10))


class TestSignificance:
    def test_boundary_is_strict(self):
        assert not significant_at_005(1.645)
        assert significant_at_005(1.6451)

    def test_reference_values_all_significant(self):
        for t in (8.191, 8.312, 8.911, 8.433, 8.001, 8.453):
            assert significant_at_005(t)


class TestComparePerformance:
    def test_end_to_end(self):
        report = compare_performance(
            ["a", "b", "c"], [80.0, 70.0, 75.0], [70.0, 65.0, 72.0], n=100
        )
        assert report.summary.mean1 == pytest.approx(75.0)
        assert report.summary.mean2 == pytest.approx(69.0)
        assert report.improvements == [
            relative_improvement(80.0, 70.0),
            relative_improvement(70.0, 65.0),
            relative_improvement(75.0, 72.0),
        ]
        assert report.t == pytest.approx(
            t_statistic(TwoSampleSummary(75.0, sample_sd([80, 70, 75]),
                                         69.0, sample_sd([70, 65, 72]), 100))
        )

    def test_length_mismatch(self):
        with pytest.raises(StatsError):
            compare_performance(["a"], [1.0, 2.0], [1.0], n=10)

    def test_needs_two_categories(self):
        with pytest.raises(StatsError):
            compare_performance(["a"], [1.0], [1.0], n=10)

    def test_table_format(self):
        report = ComparisonReport(
            categories=["x", "y"],
            candidate=[80.0, 70.0],
            baseline=[70.0, 60.0],
            summary=TwoSampleSummary(75.0, 7.0711, 65.0, 7.0711, 180),
            t=13.416,
        )
        text = format_comparison_table([("angry-env", report, 0.3721)])
        lines = text.splitlines()
        assert lines[0] == "comparison,mean1,sd1,mean2,sd2,n,t,significant,kappa"
        assert lines[1] == "angry-env,75.00,7.07,65.00,7.07,180,13.416,true,0.3721"


class TestCohenKappa:
    def test_hand_computed(self):
        assert cohen_kappa([[20, 5], [10, 15]]) == pytest.approx(0.4)

    def test_perfect_agreement(self):
        assert cohen_kappa(np.diag([10, 5, 7])) == pytest.approx(1.0)

    def test_marginal_independence_is_zero(self):
        # counts equal to products of the marginals: rows (30, 20), cols (25, 25)
        assert cohen_kappa([[15, 15], [10, 10]]) == pytest.approx(0.0)

    def test_errors(self):
        with pytest.raises(StatsError):
            cohen_kappa([[1, 2, 3], [4, 5, 6]])  # not square
        with pytest.raises(StatsError):
            cohen_kappa([[-1, 0], [0, 1]])
        with pytest.raises(StatsError):
            cohen_kappa([[0, 0], [0, 0]])
        with pytest.raises(StatsError):
            cohen_kappa([[7, 0], [0, 0]])  # single-cell mass: p_e = 1

    @given(
        st.lists(
            st.lists(st.integers(0, 30), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_range_and_perfection(self, rows):
        matrix = np.array(rows)
        total = matrix.sum()
        if total == 0:
            return
        p_e = float(np.sum(matrix.sum(axis=1) * matrix.sum(axis=0))) / (total * total)
        if p_e == 1.0:
            return
        kappa = cohen_kappa(matrix)
        assert -1.0 - 1e-12 <= kappa <= 1.0 + 1e-12
        off_diagonal = total - np.trace(matrix)
        if off_diagonal == 0:
            assert kappa == pytest.approx(1.0)
        if kappa == pytest.approx(1.0, abs=1e-12):
            assert off_diagonal == 0


class TestKappaBand:
    @pytest.mark.parametrize(
        "kappa,label",
        [
            (-0.3, "poor"),
            (0.0, "poor"),
            (0.1, "slight"),
            (0.20, "slight"),
            (0.35, "fair"),
            (0.40, "fair"),
            (0.50, "moderate"),
            (0.60, "moderate"),
            (0.75, "substantial"),
            (0.80, "substantial"),
            (0.81, "almost perfect"),
            (1.0, "almost perfect"),
        ],
    )
    def test_bands(self, kappa, label):
        assert kappa_band(kappa) == label

    def test_mid_band_annotation(self):
        assert kappa_annotation(0.35) is not None
        assert "fair" in kappa_annotation(0.35)
        assert kappa_annotation(0.40) is not None
        assert kappa_annotation(0.20) is None
        assert kappa_annotation(0.50) is None

    def test_non_finite_rejected(self):
        with pytest.raises(StatsError):
            kappa_band(float("nan"))
