PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test examples-smoke lint kernel-check check check-flow checkpoint-smoke bench bench-smoke bench-gate perfbench-smoke trace-smoke report-smoke profile experiments clean-cache

test:  ## tier-1 suite (unit/integration/property)
	$(PYTHON) -m pytest -x -q

examples-smoke:  ## run the example that replays a TraceRecord file end to end
	$(PYTHON) examples/trace_pipeline.py

lint:  ## ruff + mypy (configs in pyproject.toml)
	ruff check src tests
	mypy

kernel-check:  ## compile the block loop's C source with every warning an error
	mkdir -p build/kernel-check
	$(CC) -O2 -ffp-contract=off -std=c99 -fPIC -Wall -Wextra -Werror \
		-c src/repro/mem/block_loop.c -o build/kernel-check/block_loop.o

check:  ## repro.check pillars: linter, sanitizer smoke, flow passes
	$(PYTHON) -m repro check

check-flow:  ## flow passes only: snapshot coverage, oracle pairs
	$(PYTHON) -m repro check --flow

checkpoint-smoke:  ## checkpoint round-trip oracle on tiny runs (block loop, then scalar loop)
	$(PYTHON) -m repro checkpoint stream rrs --records 600 --cores 2 --verify
	$(PYTHON) -m repro checkpoint stream none --records 600 --cores 2 --verify
	REPRO_SANITIZE=1 $(PYTHON) -m repro checkpoint stream rrs --records 600 --cores 2 --verify

bench:  ## regenerate every table & figure (slow; honours REPRO_JOBS)
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-smoke:  ## throughput microbenchmark with a tiny request budget
	REPRO_BENCH_RECORDS=800 REPRO_CACHE=0 $(PYTHON) -m pytest \
		benchmarks/bench_throughput.py --benchmark-only -q

bench-gate:  ## fail when serial throughput regresses vs the committed baseline
	$(PYTHON) scripts/bench_gate.py

PERFBENCH_SMOKE := fullscale_security fig6_rrs fig6_baseline fig6_checkpointed

perfbench-smoke:  ## benchmark self-tests + pinned digests of $(PERFBENCH_SMOKE) on the held-out seed
	$(PYTHON) -m pytest perfbench -q
	for workload in $(PERFBENCH_SMOKE); do \
		out=$$($(PYTHON) perfbench/run.py --workload $$workload --seed 7919 --seconds 1) && \
		echo "$$out" | tail -n 1 | $(PYTHON) -c "import json, sys; line = sys.stdin.read(); \
		print(sys.argv[1] + ': correct') if json.loads(line).get('correct') is True \
		else sys.exit(sys.argv[1] + ': result not correct: ' + line)" \
		$$workload || exit 1; \
	done

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
