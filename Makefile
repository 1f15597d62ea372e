.PHONY: all build test check repro gates fuzz smoke mutants hotpath-check clean

# Fuzzing knobs (see `rchls fuzz --help`).
FUZZ_SEED ?= 42
FUZZ_CASES ?= 1000

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

# Run every gate of bench/main.ml (sweep, synth, fault, telemetry,
# serve, explore, anneal): one `gate ID pass|FAIL <work figures>` line
# each, exit 1 if any fails.  `dune exec bench/main.exe -- gates ID`
# runs one.  Inputs are constants; RCHLS_DOMAINS sets the pool size.
gates: build
	dune exec bench/main.exe -- gates

# Deterministic fuzzing smoke: every differential/metamorphic property
# of the correctness layer over FUZZ_CASES seeded cases; a failure
# prints a shrunk counterexample in replayable .dfg text and exits 2.
fuzz: build
	dune exec bin/main.exe -- fuzz --seed $(FUZZ_SEED) --cases $(FUZZ_CASES)

# Mutation check: apply each patch under test/mutants/ to a copy of
# the tree, build it and require at least one failing test.  Each
# mutant is a full build and test run (about 25 s on 2 vCPUs, 150 s for
# the six); CI runs it after the tier-1 gate.
mutants:
	sh test/mutants/run.sh

# Hot-path comparison guard: no native object of the synthesis and
# annealing libraries may import Stdlib's polymorphic min/max or a
# polymorphic comparison primitive (caml_compare, caml_lessequal, ...);
# each offender is printed with its object.  Needs `nm`.
hotpath-check: build
	sh test/hotpath_check.sh

# End-to-end smoke of the tracing/report surface: one synthesis with a
# Chrome trace and a JSON run report, plus the JSON run report of every
# other subcommand that writes one.  Each file must parse, and each
# report must carry the run-report schema tag.
SMOKE_REPORTS = report.json report_anneal.json report_sweep.json \
  report_fuzz.json report_experiment.json

smoke: build
	dune exec bin/main.exe -- synth fig4 --ld 8 --ad 300 \
	  --trace-out trace.json --report json > report.json
	dune exec bin/main.exe -- anneal fir16 --ld 12 --ad 10 --moves 200 \
	  --report json > report_anneal.json
	dune exec bin/main.exe -- sweep diffeq --lds 5,6 --ads 7,11 \
	  --approach combined --report json > report_sweep.json
	dune exec bin/main.exe -- fuzz --cases 5 --report json > report_fuzz.json
	dune exec bin/main.exe -- experiment table1 --report json \
	  > report_experiment.json
	python3 -m json.tool trace.json > /dev/null
	for f in $(SMOKE_REPORTS); do \
	  python3 -m json.tool $$f > /dev/null || exit 1; \
	  grep -q '"schema": "rchls.run_report/1"' $$f \
	    || { echo "smoke: $$f lacks the run-report schema tag"; exit 1; }; \
	done
	@echo "smoke: trace.json and $(words $(SMOKE_REPORTS)) run reports parse"

clean:
	dune clean
	rm -f trace.json $(SMOKE_REPORTS) fuzz_report.json rchls.sock
