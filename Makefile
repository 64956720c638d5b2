# Convenience targets for the Riptide reproduction.

PYTHON ?= python

.PHONY: install test lint typecheck bench bench-guard bench-figs bench-fast examples clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Generic style (ruff) plus the codebase-specific determinism /
# observability rules (`repro lint`, see docs/ARCHITECTURE.md).
lint:
	ruff check src/
	PYTHONPATH=src $(PYTHON) -m repro lint src/ --baseline lint-baseline.json

typecheck:
	$(PYTHON) -m mypy

# Tracked perf baseline (kernel events/s, timer churn, full-stack
# transfer, probe study, sweep, fluid step, hybrid agreement) ->
# BENCH_005.json with ratios against the committed BENCH_004.json.
bench:
	PYTHONPATH=src $(PYTHON) -m repro bench

# Same, but fail if kernel or fluid-step events/s regresses below
# BENCH_004.json.
bench-guard:
	PYTHONPATH=src $(PYTHON) -m repro bench --guard

# Paper figure/table regeneration benchmarks (pytest-benchmark).
bench-figs:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Model-backed artifacts only (seconds instead of minutes).
bench-fast:
	$(PYTHON) -m pytest benchmarks/test_fig02_filesizes.py \
		benchmarks/test_fig03_rtt_cdf.py benchmarks/test_fig04_gain.py \
		benchmarks/test_fig05_rtts.py benchmarks/test_fig06_model_times.py \
		benchmarks/test_table2_pops.py --benchmark-only -s

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/prefix_granularity.py
	$(PYTHON) examples/operations_playbook.py
	$(PYTHON) examples/parameter_tuning.py
	$(PYTHON) examples/probe_study.py

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
