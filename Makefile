# Convenience targets for the SODA reproduction.

.PHONY: install test lint chaos coverage bench bench-compare bench-pytest experiments report regold examples obs-demo market-demo scenarios all

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src python -m pytest -x -q

lint:
	ruff check src/ tests/ examples/ benchmarks/

# Chaos soak: the seeded fault campaign over the open-loop web workload,
# run for each of the three pinned seeds (0, 7, 123); then the fault
# ablation and the run-harness suite that composes fault plans.
chaos:
	PYTHONPATH=src python -m pytest tests/faults/test_chaos_soak.py -q
	PYTHONPATH=src python -m repro.experiments.runner run ablation-faults --fast
	PYTHONPATH=src python -m pytest tests/scenario/test_run.py -q

# Needs pytest-cov (pip install pytest-cov); the floor matches CI's.
coverage:
	PYTHONPATH=src python -m pytest -q --cov=repro --cov-report=term --cov-fail-under=80

bench:
	PYTHONPATH=src python -m repro.bench

bench-compare:
	PYTHONPATH=src python -m repro.bench --dry-run --compare

bench-pytest:
	pytest benchmarks/ --benchmark-only

experiments:
	soda-experiments all

report:
	soda-experiments report --out EXPERIMENTS.md

# Re-pin tests/golden/digests.json.  Only for an intended behaviour
# change; every re-pin must be justified in CHANGES.md.
regold:
	PYTHONPATH=src python -m tests.golden.digests

examples:
	python examples/quickstart.py
	python examples/genome_service.py
	python examples/honeypot_isolation.py
	python examples/custom_switch_policy.py
	python examples/capacity_planning.py
	python examples/diurnal_autoscaler.py
	python examples/sla_tiers.py
	python examples/observability.py
	python examples/market_economics.py

obs-demo:
	PYTHONPATH=src python examples/observability.py obs-demo

# The scenario library: list the catalogue, then run the fast matrix
# (scenario x policy x seed) serially and with 2 workers — byte-identical.
scenarios:
	PYTHONPATH=src python -m repro.scenario.cli list
	PYTHONPATH=src python -m repro.experiments.scenario_matrix --fast --parallel 2

# Spot pricing, bid-aware admission, and the market-vs-FCFS ablation.
market-demo:
	PYTHONPATH=src python examples/market_economics.py
	PYTHONPATH=src python -m repro.experiments.runner run ablation-market --fast

all: test bench
