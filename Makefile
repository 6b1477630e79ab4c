# Convenience targets for the reproduction workflow.

PYTHON ?= python

.PHONY: install test bench bench-report bench-e2e bench-compare bench-solver bench-window-loop examples all clean

install:
	pip install -e . --no-build-isolation

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Prints the paper-vs-measured tables (the EXPERIMENTS.md source data).
bench-report:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -s

# The end-to-end negotiation benchmark (every workload, ~2.5 min); the
# run lands in OUT.  Compare two such runs row by row with bench-compare.
OUT ?= benchmarks/e2e/.out/run.json

bench-e2e:
	@mkdir -p $(dir $(OUT))
	python3 benchmarks/e2e/run.py --seed 1 --out $(OUT)

# make bench-compare A=base.json B=change.json — flags rows beyond the
# BENCHMARK.json bounds and exits 1 when any row is worse.
bench-compare:
	@test -n "$(A)" -a -n "$(B)" || \
		{ echo "usage: make bench-compare A=base.json B=change.json"; exit 2; }
	python3 benchmarks/e2e/compare.py $(A) $(B)

# make bench-solver W=chain-market — per-candidate solve time on the
# candidate SCSPs one workload's broker builds (minimum of PASSES
# passes): METHOD=branch-bound solves them one by one and as one group
# search per topology group, METHOD=stacked solves each session's
# topology groups in one stacked scan each, METHOD=elimination asks each
# one's store-consistency query (con=()); every method also times a
# session's whole step 3 on a miss and on a warm hit.
W ?= unique-market
METHOD ?= branch-bound
PASSES ?= 100

bench-solver:
	python3 benchmarks/solver_bench.py --workload $(W) --method $(METHOD) --passes $(PASSES)

# make bench-window-loop W=unique-market N=30 — a hang sentinel: N timed
# end-to-end windows of one workload, one after another, each killed with
# SIGABRT after 98 s so that a hung window prints every thread's stack
# (faulthandler) and the loop stops with a failure.
N ?= 30

bench-window-loop:
	@for i in $$(seq 1 $(N)); do \
		echo "== $(W) window $$i/$(N)"; \
		timeout -s ABRT 98 python3 -X faulthandler benchmarks/e2e/window.py \
			--workload $(W) --seed 1 --window 1 --seconds 8 > /dev/null \
			|| exit 1; \
	done

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script || exit 1; \
	done

all: install test bench examples

clean:
	rm -rf .pytest_cache .hypothesis build dist src/*.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
