"""Statistical comparison of paired measurement distributions.

The paper makes both positive claims ("transfer times decreased for 30%
of connections") and null claims ("Riptide had no discernible effect on
the 10KB probes").  A two-sample Kolmogorov–Smirnov test puts numbers on
both: a tiny p-value says the distributions genuinely differ, a large
one says any difference is noise.

scipy is imported inside :func:`ks_compare`, its only user, so importing
the package (every experiment does) does not pay scipy's start-up cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable


@dataclass(frozen=True)
class KsComparison:
    """Result of a two-sample KS test between control and treatment."""

    statistic: float
    p_value: float
    n_control: int
    n_treatment: int

    def distributions_differ(self, alpha: float = 0.01) -> bool:
        """True when the difference is significant at level ``alpha``."""
        return self.p_value < alpha

    def consistent_with_no_change(self, alpha: float = 0.05) -> bool:
        """True when the data cannot reject 'no effect' at ``alpha``."""
        return self.p_value >= alpha

    def summary(self) -> str:
        return (
            f"KS D={self.statistic:.3f} p={self.p_value:.4g} "
            f"(n={self.n_control}/{self.n_treatment})"
        )


def ks_compare(
    control: Iterable[float],
    treatment: Iterable[float],
) -> KsComparison:
    """Two-sample KS test; raises on empty inputs."""
    from scipy import stats

    control_values = list(control)
    treatment_values = list(treatment)
    if not control_values or not treatment_values:
        raise ValueError("ks_compare requires non-empty samples on both sides")
    result = stats.ks_2samp(control_values, treatment_values)
    return KsComparison(
        statistic=float(result.statistic),
        p_value=float(result.pvalue),
        n_control=len(control_values),
        n_treatment=len(treatment_values),
    )


def median_shift(
    control: Iterable[float],
    treatment: Iterable[float],
) -> float:
    """Fractional median improvement of treatment over control."""
    control_values = sorted(control)
    treatment_values = sorted(treatment)
    if not control_values or not treatment_values:
        raise ValueError("median_shift requires non-empty samples")
    control_median = control_values[len(control_values) // 2]
    treatment_median = treatment_values[len(treatment_values) // 2]
    if control_median == 0:
        return 0.0
    return 1.0 - treatment_median / control_median
