PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint check check-flow checkpoint-smoke bench bench-smoke bench-gate perfbench-smoke trace-smoke report-smoke profile experiments clean-cache

test:  ## tier-1 suite (unit/integration/property)
	$(PYTHON) -m pytest -x -q

lint:  ## ruff + mypy (configs in pyproject.toml)
	ruff check src tests
	mypy

check:  ## repro.check pillars: linter, salt drift, sanitizer smoke, flow engine
	$(PYTHON) -m repro check

check-flow:  ## flow engine only: entropy, oracle drift, hot-path, snapshot coverage
	$(PYTHON) -m repro check --flow

checkpoint-smoke:  ## checkpoint round-trip oracle on tiny runs (block loop)
	$(PYTHON) -m repro checkpoint stream rrs --records 600 --cores 2 --verify
	$(PYTHON) -m repro checkpoint stream none --records 600 --cores 2 --verify

bench:  ## regenerate every table & figure (slow; honours REPRO_JOBS)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-smoke:  ## throughput microbenchmark with a tiny request budget
	REPRO_BENCH_RECORDS=800 REPRO_CACHE=0 $(PYTHON) -m pytest \
		benchmarks/bench_throughput.py --benchmark-only -q

bench-gate:  ## fail when serial throughput regresses vs the committed baseline
	$(PYTHON) scripts/bench_gate.py

perfbench-smoke:  ## benchmark self-tests + pinned full-scale digests on the held-out seed
	$(PYTHON) -m pytest perfbench -q
	out=$$($(PYTHON) perfbench/run.py --workload fullscale_security --seed 7919 --seconds 1) && \
		echo "$$out" | tail -n 1 | $(PYTHON) -c "import json, sys; line = sys.stdin.read(); \
		sys.exit(0 if json.loads(line).get('correct') is True else 'result not correct: ' + line)"

trace-smoke:  ## tiny traced run; validates the Perfetto JSON it writes
	$(PYTHON) -m repro trace hmmer rrs --records 2000 --out trace-smoke.json

report-smoke:  ## tiny sweep -> ledger -> HTML dashboard; validates embedded JSON
	$(PYTHON) scripts/report_smoke.py report-smoke.html

profile:  ## cProfile the hot path (WORKLOAD=name DEFENSE=name PROFILE_FLAGS=--trace)
	$(PYTHON) -m repro profile $(or $(WORKLOAD),hmmer) $(or $(DEFENSE),rrs) \
		--records 8000 $(PROFILE_FLAGS)

experiments:  ## full pipeline with a result index (use JOBS=N to fan out)
	$(PYTHON) scripts/run_all_experiments.py $(if $(JOBS),--jobs $(JOBS))

clean-cache:  ## drop every cached sweep result
	$(PYTHON) -c "from repro.exec import ResultCache; print(ResultCache().clear(), 'entries removed')"
