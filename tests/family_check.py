"""Exact binomial p-values and a family-wise (Bonferroni) bound, for tests
that compare sampled counts with known probabilities.

Each p-value is exact or conservative for any true rate, small or large,
and Bonferroni holds however the tests depend on each other. So a correct
sampler fails a check of m p-values at level ``alpha / m`` with
probability at most ``alpha``, whatever the seed.
"""

from __future__ import annotations

import math


def binomial_p(k: int, n: int, p: float) -> float:
    """Two-sided exact p-value of ``k`` successes in ``n`` trials at rate
    ``p``: twice the tail on ``k``'s side of the mean."""
    if p <= 0.0:
        return 1.0 if k == 0 else 0.0
    if p >= 1.0:
        return 1.0 if k == n else 0.0
    log_p, log_q, log_n = math.log(p), math.log1p(-p), math.lgamma(n + 1)

    def pmf(j: int) -> float:
        return math.exp(log_n - math.lgamma(j + 1) - math.lgamma(n - j + 1)
                        + j * log_p + (n - j) * log_q)

    # Away from the mean the pmf only falls, so the sum stops once a term
    # no longer moves it.
    step = -1 if k < n * p else 1
    tail, j = 0.0, k
    while 0 <= j <= n:
        term = pmf(j)
        tail += term
        if term <= tail * 1e-17:
            break
        j += step
    return min(1.0, 2.0 * tail)


def bonferroni_failures(p_values: list[tuple[str, float]],
                        alpha: float) -> list[tuple[str, float]]:
    """The (label, p-value) pairs below ``alpha`` over the number of tests."""
    threshold = alpha / len(p_values) if p_values else 0.0
    return [(label, p) for label, p in p_values if p < threshold]
