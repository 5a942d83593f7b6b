"""Evaluation statistics: significance testing and rater agreement.

Two classifiers are compared over matched per-category accuracies by a
Student-t statistic whose denominator is sqrt((SD1^2 + SD2^2) / n) — the two
sample SDs combined and divided by the single shared sample size. That
combination rule is kept verbatim because downstream reports depend on it.
Significance is one-sided against the 95% critical value 1.645.

Agreement between two labelings (system vs. ground truth, or two raters) is
summarized by Cohen's kappa and banded on the Landis & Koch scale.
"""

import math
from dataclasses import dataclass

import numpy as np

CRITICAL_T_005 = 1.645


class StatsError(ValueError):
    pass


def sample_mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise StatsError("mean of empty sample")
    return float(values.mean())


def sample_sd(values) -> float:
    """Standard deviation with Bessel's correction (ddof=1)."""
    values = np.asarray(values, dtype=np.float64)
    if values.size < 2:
        raise StatsError("sample SD needs at least 2 values")
    return float(values.std(ddof=1))


def mean_performance(values) -> float:
    """Arithmetic mean of accuracy percentages, reported to 2 decimals."""
    return round(sample_mean(values), 2)


def relative_improvement(candidate: float, baseline: float) -> float:
    """Percent change of ``candidate`` over ``baseline``, reported to 2 decimals."""
    if baseline == 0:
        raise StatsError("baseline is zero")
    return round(100.0 * (candidate - baseline) / baseline, 2)


@dataclass(frozen=True)
class TwoSampleSummary:
    """Both samples of one comparison: means, SDs, and the shared size n."""

    mean1: float
    sd1: float
    mean2: float
    sd2: float
    n: int

    def validate(self) -> None:
        if self.n < 2:
            raise StatsError(f"n must be >= 2, got {self.n}")
        if self.sd1 < 0 or self.sd2 < 0:
            raise StatsError("standard deviations must be non-negative")
        for name in ("mean1", "sd1", "mean2", "sd2"):
            if not math.isfinite(getattr(self, name)):
                raise StatsError(f"{name} must be finite")

    @classmethod
    def from_samples(cls, sample1, sample2, n: int) -> "TwoSampleSummary":
        """Summarize two matched value lists; ``n`` is the count of underlying
        observations behind each value, supplied by the caller."""
        summary = cls(
            mean1=sample_mean(sample1),
            sd1=sample_sd(sample1),
            mean2=sample_mean(sample2),
            sd2=sample_sd(sample2),
            n=n,
        )
        summary.validate()
        return summary


def pooled_sd(summary: TwoSampleSummary) -> float:
    """sqrt((SD1^2 + SD2^2) / n): the denominator of :func:`t_statistic`."""
    summary.validate()
    return math.sqrt((summary.sd1 ** 2 + summary.sd2 ** 2) / summary.n)


def t_statistic(summary: TwoSampleSummary) -> float:
    denom = pooled_sd(summary)
    if denom == 0:
        raise StatsError("pooled SD is zero")
    return (summary.mean1 - summary.mean2) / denom


def significant_at_005(t: float, critical: float = CRITICAL_T_005) -> bool:
    """One-sided test: strictly greater than the critical value."""
    return t > critical


@dataclass
class ComparisonReport:
    """Candidate-vs-baseline accuracy comparison over matched categories."""

    categories: list[str]
    candidate: list[float]
    baseline: list[float]
    summary: TwoSampleSummary
    t: float

    @property
    def improvements(self) -> list[float]:
        return [relative_improvement(c, b) for c, b in zip(self.candidate, self.baseline)]

    @property
    def significant(self) -> bool:
        return significant_at_005(self.t)


def compare_performance(
    categories: list[str], candidate: list[float], baseline: list[float], n: int
) -> ComparisonReport:
    """Build the full comparison: per-category improvement plus the t statistic.

    ``n`` is the number of identification attempts behind each per-category
    accuracy; it scales the pooled SD and is a property of the session, not of
    the summary values, so it is always supplied explicitly.
    """
    if not (len(categories) == len(candidate) == len(baseline)):
        raise StatsError("categories/candidate/baseline lengths differ")
    if len(categories) < 2:
        raise StatsError("need at least 2 categories for a comparison")
    summary = TwoSampleSummary.from_samples(candidate, baseline, n)
    return ComparisonReport(
        categories=list(categories),
        candidate=list(candidate),
        baseline=list(baseline),
        summary=summary,
        t=t_statistic(summary),
    )


COMPARISON_HEADER = "comparison,mean1,sd1,mean2,sd2,n,t,significant,kappa"


def format_comparison_table(entries) -> str:
    """Delimited comparison report: one row per named comparison/environment.

    ``entries`` is an iterable of (name, ComparisonReport, kappa-or-None).
    """
    lines = [COMPARISON_HEADER]
    for name, report, kappa in entries:
        s = report.summary
        kappa_text = "" if kappa is None else f"{kappa:.4f}"
        lines.append(
            f"{name},{s.mean1:.2f},{s.sd1:.2f},{s.mean2:.2f},{s.sd2:.2f},{s.n},"
            f"{report.t:.3f},{str(report.significant).lower()},{kappa_text}"
        )
    return "\n".join(lines) + "\n"


# --- agreement -----------------------------------------------------------------------

def cohen_kappa(confusion) -> float:
    """Chance-corrected agreement of a square contingency table.

    kappa = (p_o - p_e) / (1 - p_e) with p_o the diagonal mass and p_e the
    expected agreement from the row/column marginals. Undefined (raises) when
    the marginals force p_e = 1, i.e. all mass sits in a single cell pair.
    """
    matrix = np.asarray(confusion, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise StatsError(f"confusion matrix must be square, got {matrix.shape}")
    if np.any(matrix < 0) or not np.all(np.isfinite(matrix)):
        raise StatsError("confusion matrix entries must be finite and non-negative")
    total = matrix.sum()
    if total == 0:
        raise StatsError("empty confusion matrix")
    p_o = float(np.trace(matrix)) / total
    p_e = float(np.sum(matrix.sum(axis=1) * matrix.sum(axis=0))) / (total * total)
    if p_e == 1.0:
        raise StatsError("kappa undefined: expected agreement is 1 (single-cell table)")
    return float((p_o - p_e) / (1.0 - p_e))


KAPPA_BANDS = (
    (0.0, "poor"),
    (0.20, "slight"),
    (0.40, "fair"),
    (0.60, "moderate"),
    (0.80, "substantial"),
    (math.inf, "almost perfect"),
)

KAPPA_MID_BAND_NOTE = (
    "agreement in (0.20, 0.40] sits in the 'fair' band of the Landis-Koch"
    " scale, although applied reports sometimes describe this range as"
    " moderate agreement"
)


def kappa_band(kappa: float) -> str:
    """Landis & Koch descriptive label; upper bounds are inclusive."""
    if not math.isfinite(kappa):
        raise StatsError(f"kappa must be finite, got {kappa}")
    for upper, label in KAPPA_BANDS:
        if kappa <= upper:
            return label
    raise AssertionError("unreachable")


def kappa_annotation(kappa: float) -> str | None:
    """Caveat attached to reports for mid-range agreement values, else None."""
    return KAPPA_MID_BAND_NOTE if 0.20 < kappa <= 0.40 else None
