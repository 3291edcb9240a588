"""Exact tail tests and a family-wise (Bonferroni) check for sampled counts.

Every test here is exact or conservative for any true rate, small or
large, so a correct sampler fails a whole ``FamilyCheck`` with probability
at most its ``alpha``, whatever the seed and however many trials ran.

Bonferroni over many tests only catches a large error in one of them. A
small error shared by many (every win rate a few points off) is caught by
combining a group of independent p-values with Fisher's method, which the
check adds as one more test per group.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

# Chance that a correct sampler fails one run's whole check.
FAMILY_ALPHA = 1e-4


def _log_comb(n: int, k: int) -> float:
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def _two_sided(log_pmf, lo: int, hi: int, observed: int) -> float:
    """Twice the smaller tail at ``observed`` of a distribution on [lo, hi]."""
    logs = [log_pmf(k) for k in range(lo, hi + 1)]
    peak = max(logs)
    weights = [math.exp(v - peak) for v in logs]
    total = sum(weights)
    below = sum(weights[: observed - lo + 1]) / total
    above = sum(weights[observed - lo:]) / total
    return min(1.0, 2.0 * min(below, above))


def binomial_p(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of ``k`` successes in ``n`` trials at rate ``p``."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    lp, lq = math.log(p), math.log1p(-p)
    return _two_sided(lambda j: _log_comb(n, j) + j * lp + (n - j) * lq, 0, n, k)


def fisher_p(k1: int, n1: int, k2: int, n2: int) -> float:
    """Two-sided Fisher exact p-value that two binomial samples share a rate.

    Conditional on the total successes, ``k1`` is hypergeometric; the test
    is exact for every common rate, including rates near 0 or 1.
    """
    total, successes = n1 + n2, k1 + k2
    lo, hi = max(0, n1 - (total - successes)), min(n1, successes)
    if lo == hi:
        return 1.0
    return _two_sided(
        lambda j: _log_comb(successes, j) + _log_comb(total - successes, n1 - j),
        lo, hi, k1)


def combined_p(p_values: list[float]) -> float:
    """Fisher's method: P(chi-squared with 2k degrees of freedom >= -2 sum ln p).

    Valid, and conservative, when the k p-values are independent and each is
    exact or conservative, as the discrete tests above are.
    """
    if min(p_values) <= 0.0:
        return 0.0
    half = -sum(math.log(p) for p in p_values)
    if half == 0.0:
        return 1.0
    # The chi-squared survival function for even degrees of freedom.
    log_half = math.log(half)
    return min(1.0, sum(math.exp(j * log_half - half - math.lgamma(j + 1))
                        for j in range(len(p_values))))


@dataclass
class FamilyCheck:
    """Collects p-values; fails if any test is below alpha / (number of tests).

    A p-value added with a ``group`` also goes into that group's combined
    test, which counts as one more test of the family. The p-values of a
    group must be independent.
    """

    alpha: float = FAMILY_ALPHA
    results: list[tuple[str, float]] = field(default_factory=list)
    groups: dict[str, list[float]] = field(default_factory=dict)

    def add(self, label: str, p_value: float, group: str | None = None) -> None:
        self.results.append((label, p_value))
        if group is not None:
            self.groups.setdefault(group, []).append(p_value)

    def tests(self) -> list[tuple[str, float]]:
        return self.results + [(f"{group} combined over {len(ps)} tests", combined_p(ps))
                               for group, ps in self.groups.items()]

    def failures(self) -> list[tuple[str, float]]:
        tests = self.tests()
        if not tests:
            return []
        threshold = self.alpha / len(tests)
        return [(label, p) for label, p in tests if p < threshold]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' exclusive method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
