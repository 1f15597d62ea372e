.PHONY: all build test check repro bench-json bench-fault bench-telemetry \
  bench-synth bench-fuzz bench-serve bench-explore bench-anneal fuzz smoke clean

# Explore benchmark knobs (see `bench explore` in bench/main.ml).
EXPLORE_COUNT ?= 20

# Annealing benchmark knobs (see `bench anneal` in bench/main.ml).
ANNEAL_COUNT ?= 20
ANNEAL_MOVES ?= 2000

# Fuzzing knobs (see `rchls fuzz --help` and `bench fuzz` in bench/main.ml).
FUZZ_SEED ?= 42
FUZZ_CASES ?= 1000

# Synthesis hot-path benchmark knobs (see `bench synth` in bench/main.ml).
SYNTH_REPS ?= 5

# Fault-campaign benchmark knobs (see `bench fault` in bench/main.ml).
FAULT_VECTORS ?= 64
FAULT_WIDTH ?= 16

all: build

build:
	dune build

test:
	dune runtest

# The tier-1 gate: everything must compile and every test must pass.
check:
	dune build
	dune runtest

# Regenerate every table/figure of the paper.
repro: build
	dune exec bench/main.exe -- repro

# Time the Fig-8/Table-2 sweep suite sequential vs on the domain pool,
# verify cell-for-cell equality, and record the result (with the
# evaluation-cache hit/miss counters) in BENCH_sweep.json.
bench-json: build
	dune exec bench/main.exe -- sweep BENCH_sweep.json

# Time the fault-injection campaigns scalar vs bit-parallel vs the
# domain pool, verify report equality, and record the result (with the
# fault.* telemetry counters) in BENCH_fault.json.
bench-fault: build
	dune exec bench/main.exe -- fault --vectors $(FAULT_VECTORS) \
	  --width $(FAULT_WIDTH) BENCH_fault.json

# Time full synthesis and single realizations, old-equivalent reference
# path vs the incremental scheduler (+ parallel refine when the pool
# has more than one domain), verify the synthesized designs are
# identical, and record the result in BENCH_synth.json.
bench-synth: build
	dune exec bench/main.exe -- synth --reps $(SYNTH_REPS) BENCH_synth.json

# Deterministic fuzzing smoke: every differential/metamorphic property
# of the correctness layer over FUZZ_CASES seeded cases; a failure
# prints a shrunk counterexample in replayable .dfg text and exits 2.
fuzz: build
	dune exec bin/main.exe -- fuzz --seed $(FUZZ_SEED) --cases $(FUZZ_CASES)

# Time the fuzzing harness per property (cases/s) and the validity
# checker's overhead on the synthesis hot path; record in
# BENCH_fuzz.json and fail unless every property passes.
bench-fuzz: build
	dune exec bench/main.exe -- fuzz --seed $(FUZZ_SEED) \
	  --cases $(FUZZ_CASES) BENCH_fuzz.json

# Start an in-process serve daemon on a private socket, replay a mixed
# synthesis workload cold / warm / after a daemon restart, verify every
# payload is byte-identical across tiers, and record throughput and
# cache telemetry in BENCH_serve.json (fails below a 5x warm speedup).
bench-serve: build
	dune exec bench/main.exe -- serve BENCH_serve.json

# Generate a fixed-seed benchmark corpus, sweep every graph's planned
# bound plane exhaustively and with the frontier-guided explorer,
# assert the grids and Pareto frontiers byte-identical, and record the
# result in BENCH_explore.json (fails below a 5x engine-call saving).
bench-explore: build
	dune exec bench/main.exe -- explore --count $(EXPLORE_COUNT) BENCH_explore.json

# Anneal two knee cells per corpus graph from the greedy seed,
# validate every annealed design with the independent checker, assert
# results identical across domain counts, and record the result in
# BENCH_anneal.json (fails unless every cell is at least as reliable
# as greedy and at least 25% strictly improve).
bench-anneal: build
	dune exec bench/main.exe -- anneal --count $(ANNEAL_COUNT) \
	  --moves $(ANNEAL_MOVES) BENCH_anneal.json

# Measure the observability layer itself: sharded-counter throughput
# (with an exactness check under all-domain contention) and the
# per-span overhead of Trace.with_span with no sink installed.
bench-telemetry: build
	dune exec bench/main.exe -- telemetry BENCH_telemetry.json

# End-to-end smoke of the tracing/report surface: one synthesis with a
# Chrome trace and a JSON run report, both validated as parseable.
smoke: build
	dune exec bin/main.exe -- synth fig4 --ld 8 --ad 300 \
	  --trace-out trace.json --report json > report.json
	python3 -m json.tool trace.json > /dev/null
	python3 -m json.tool report.json > /dev/null
	@echo "smoke: trace.json and report.json parse"

clean:
	dune clean
	rm -f BENCH_sweep.json BENCH_fault.json BENCH_telemetry.json \
	  BENCH_synth.json BENCH_fuzz.json BENCH_serve.json \
	  BENCH_explore.json BENCH_anneal.json trace.json report.json \
	  fuzz_report.json rchls.sock
	rm -rf _bench_corpus
