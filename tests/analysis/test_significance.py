"""Tests for the KS-based distribution comparison."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import ks_compare, median_shift


class TestKsCompare:
    def test_identical_samples_consistent_with_no_change(self):
        values = [float(i) for i in range(200)]
        result = ks_compare(values, list(values))
        assert result.p_value == pytest.approx(1.0)
        assert result.consistent_with_no_change()
        assert not result.distributions_differ()

    def test_shifted_samples_differ(self):
        rng = random.Random(1)
        control = [rng.gauss(1.0, 0.1) for _ in range(300)]
        treatment = [rng.gauss(0.5, 0.1) for _ in range(300)]
        result = ks_compare(control, treatment)
        assert result.distributions_differ()
        assert result.statistic > 0.5

    def test_same_distribution_different_draws(self):
        rng = random.Random(2)
        control = [rng.gauss(1.0, 0.2) for _ in range(300)]
        treatment = [rng.gauss(1.0, 0.2) for _ in range(300)]
        result = ks_compare(control, treatment)
        assert result.consistent_with_no_change(alpha=0.01)

    def test_sample_counts_recorded(self):
        result = ks_compare([1.0, 2.0], [1.0, 2.0, 3.0])
        assert result.n_control == 2
        assert result.n_treatment == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_compare([], [1.0])
        with pytest.raises(ValueError):
            ks_compare([1.0], [])

    def test_summary_renders(self):
        summary = ks_compare([1.0, 2.0], [1.0, 2.0]).summary()
        assert "KS D=" in summary and "p=" in summary


class TestMedianShift:
    def test_improvement_positive(self):
        assert median_shift([2.0, 2.0, 2.0], [1.0, 1.0, 1.0]) == pytest.approx(0.5)

    def test_no_change_zero(self):
        assert median_shift([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_regression_negative(self):
        assert median_shift([1.0], [2.0]) == pytest.approx(-1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_shift([], [1.0])


def test_importing_experiments_leaves_scipy_unloaded():
    # scipy's import costs about a second; only ks_compare may pay it.
    src = Path(__file__).resolve().parents[2] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, repro.experiments; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert result.stdout.strip() == "False"
