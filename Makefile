PYTHON ?= python
PYTEST = PYTHONPATH=src $(PYTHON) -m pytest

# Modules held to mypy --strict (annotated typed-API surface; grow this list
# as more of the tree is annotated).
STRICT_TYPED = \
	src/repro/core/errors.py \
	src/repro/core/provenance.py \
	src/repro/core/ssdlet.py \
	src/repro/core/types.py \
	src/repro/resilience/hedge.py

.PHONY: test test-fast test-faults bench serve lint typecheck trace attribute race e2e-smoke results-check

# The full tier-1 suite (what CI runs on every push).
test:
	$(PYTEST) -q

# Everything except the slower integration sweeps.
test-fast:
	$(PYTEST) -q --ignore=tests/integration

# Only the fault-injection soaks (the long differential sweeps marked
# `faults`).  Nothing deselects the marker, so `make test` runs them too.
test-faults:
	$(PYTEST) -q -m faults

# Every table, figure, extension and ablation (python -m repro.bench --list):
# the one writer of benchmarks/results/<name>.{txt,csv,metrics.json}.
bench:
	PYTHONPATH=src $(PYTHON) -m repro.bench

# End-to-end benchmark (BENCHMARK.json) at smoke size: all seven workloads
# once with every output checked, then the benchmark's own tests.  Both
# clocks; the full run is `python -m repro.bench e2e --workload all` (the
# benchmark driver calls `python3 benchmarks/e2e/run.py` itself).
e2e-smoke:
	PYTHONPATH=src $(PYTHON) -m repro.bench e2e --workload all --smoke
	$(PYTHON) -m pytest -q benchmarks/e2e

# The paper-facing result files are compared, not just written: re-run all
# 23 experiments (~100 s), which rewrite benchmarks/results/, check the
# paper's claims and the reproduction's floors against the fresh metrics
# (benchmarks/results/<name>.metrics.json), then fail if a tracked file moved
# or a new one appeared there.  Every number in them is simulated, so any
# diff is a change to a Table/Figure and must be a deliberate, committed
# refresh.
results-check:
	PYTHONPATH=src $(PYTHON) -m repro.bench
	$(PYTEST) -q -p no:benchmark tests/bench/test_paper_claims.py
	git diff --exit-code benchmarks/results
	@untracked=$$(git ls-files --others --exclude-standard benchmarks/results); \
	if [ -n "$$untracked" ]; then \
		echo "untracked files under benchmarks/results:"; echo "$$untracked"; exit 1; \
	fi

# Run a serving-layer traffic mix deterministically (override MIX/POLICY,
# e.g. `make serve MIX=saturation POLICY=wfq`).
MIX ?= smoke
POLICY ?= fifo
serve:
	PYTHONPATH=src $(PYTHON) -m repro.serve --mix $(MIX) --policy $(POLICY) \
		--out serve-$(MIX)-$(POLICY).json

# Trace a workload end to end (Perfetto JSON + metrics + breakdown).
# Override with `make trace WORKLOAD=read_latency`.
WORKLOAD ?= string_search
trace:
	PYTHONPATH=src $(PYTHON) -m repro.instrument --workload $(WORKLOAD) \
		--trace trace-$(WORKLOAD).json --metrics metrics-$(WORKLOAD).json \
		--breakdown

# Per-query tail-latency attribution (exact ns-integer decomposition) with
# the slowest query's critical path.  Override with
# `make attribute ATTR_WORKLOAD=serve_mix` (or `tpch`: Q6 and Q14 at Fig. 10
# size, a 90 k-event query attributed in a couple of seconds).
ATTR_WORKLOAD ?= read_latency
attribute:
	PYTHONPATH=src $(PYTHON) -m repro.instrument attribute \
		--workload $(ATTR_WORKLOAD) --critical-path \
		--json attribution-$(ATTR_WORKLOAD).json

# Determinism/unit-discipline lint suite (exit 1 on any finding).
lint:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --strict src/repro

# Interleaving sanitizer: static RPR3xx rules in strict mode, then a golden
# workload under REPRO_RACE_CHECK with reversed tie-breaking in every
# provably order-free batch (must stay conflict-free and bit-identical).
# Override with `make race RACE_WORKLOAD=fig7`.
RACE_WORKLOAD ?= table3
race:
	PYTHONPATH=src $(PYTHON) -m repro.analysis --strict --select RPR3 src/repro
	PYTHONPATH=src $(PYTHON) -m repro.analysis.races --workload $(RACE_WORKLOAD)

# mypy --strict over the typed surface.  Skips (exit 0) when mypy is not
# installed — the container image has no network, so the gate only binds
# where mypy is available (CI installs it).
typecheck:
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		PYTHONPATH=src $(PYTHON) -m mypy --strict $(STRICT_TYPED); \
	else \
		echo "mypy not installed; skipping typecheck"; \
	fi
