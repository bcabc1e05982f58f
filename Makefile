# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint lint-baseline graph-report bench bench-smoke bench-json \
	profile scorecard examples all clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Whole-program determinism/invariant analyzer always runs (stdlib-only):
# per-file checkers plus the call-graph phase, over the package AND the
# test/bench/script/example trees, ratcheted against .repro-lint-baseline.json.
# ruff and mypy run when installed (CI installs them; the pinned local
# env may not have them).
LINT_PATHS := src/repro tests benchmarks scripts examples
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis $(LINT_PATHS)
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; \
		then ruff check src tests benchmarks examples scripts; \
		else echo "ruff not installed; skipping"; fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; \
		then $(PYTHON) -m mypy src/repro scripts/check_bench_regression.py; \
		else echo "mypy not installed; skipping"; fi

# Refresh the grandfathered-finding baseline (only when a finding is
# consciously accepted; the ratchet otherwise only goes down).
lint-baseline:
	PYTHONPATH=src $(PYTHON) -m repro.analysis $(LINT_PATHS) --write-baseline

# Whole-program artefacts: call-graph dump and API-surface/dead-symbol
# report (same JSON CI uploads).
graph-report:
	PYTHONPATH=src $(PYTHON) -m repro.analysis $(LINT_PATHS) \
		--json --graph-json lint-callgraph.json --api-report lint-api.json \
		> lint-findings.json || true
	@echo "wrote lint-findings.json lint-callgraph.json lint-api.json"

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# The CI smoke set: substrate/runner/columnar/store/serve microbenches,
# gated against BENCH_0.json by scripts/check_bench_regression.py.
SMOKE_BENCHES := benchmarks/test_perf_substrates.py benchmarks/test_perf_runner.py \
	benchmarks/test_perf_columnar.py benchmarks/test_perf_store.py \
	benchmarks/test_perf_serve.py
bench-smoke:
	$(PYTHON) -m pytest $(SMOKE_BENCHES) --benchmark-only --benchmark-disable-gc \
		--benchmark-json=bench-smoke.json
	$(PYTHON) scripts/check_bench_regression.py BENCH_0.json bench-smoke.json

# Benches with the reproduced tables/figures printed.
bench-show:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# Machine-readable benchmark snapshot (for tracking perf across commits).
BENCH_DATE := $(shell date +%Y%m%d)
bench-json:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only \
		--benchmark-json=BENCH_$(BENCH_DATE).json

# Profile any CLI command under cProfile (report on stderr, artefact on
# stdout).  Override PROFILE_CMD to profile a different experiment, e.g.
#   make profile PROFILE_CMD="internet-scale --domains 50000"
PROFILE_CMD ?= adoption --domains 2000
profile:
	PYTHONPATH=src $(PYTHON) -m repro --profile $(PROFILE_CMD)

scorecard:
	$(PYTHON) -m repro scorecard

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

all: test bench scorecard

clean:
	rm -rf build dist src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
