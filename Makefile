# Convenience wrappers around dune. `make check` is the tier-1 gate.

DUNE_FILES := $(shell git ls-files '*dune' 'dune-project')

.PHONY: all build check test fmt fmt-check bench bench-quick bench-guard obs-check fuzz-smoke net-smoke trace-smoke cli-smoke ci clean

all: build

build:
	dune build

check: ## build everything and run the full test suite
	dune build
	dune runtest

test: check

fmt: ## format the build files; OCaml sources too when ocamlformat exists
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt --auto-promote; \
	else \
	  echo "ocamlformat not on PATH: formatting dune files only"; \
	  for f in $(DUNE_FILES); do \
	    dune format-dune-file $$f > $$f.fmt && mv $$f.fmt $$f; \
	  done; \
	fi

fmt-check: ## formatting gate; degrades to a no-op warning without ocamlformat
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "ocamlformat not on PATH: skipping format check"; \
	fi

bench:
	dune exec bench/main.exe

bench-quick: ## E11 smoke run (small depth, exploration only)
	dune exec bench/main.exe -- --quick

bench-guard: ## pinned ceilings: replay amortization (E11e/f), net stabilization (N1), tracing overhead (N1t, P9), round-batching cost + net-vs-shm verdicts (N2)
	dune exec bin/bench_guard.exe -- BENCH_quick.json

obs-check: ## traced exploration; validate the emitted JSONL/Chrome/metrics files
	dune exec bin/setsync_cli.exe -- explore --check detector -n 2 -t 1 -k 1 \
	  --depth 6 --domains 2 \
	  --trace-out /tmp/setsync_ci_trace.jsonl --metrics-out /tmp/setsync_ci_metrics.json
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_trace.jsonl \
	  --chrome /tmp/setsync_ci_trace.chrome.json \
	  --metrics /tmp/setsync_ci_metrics.json \
	  --require replay,expand,sleep_prune \
	  --require-counter explorer.states --require-counter explorer.replay_steps

fuzz-smoke: ## fixed-seed fuzz run: the seeded-bug SUT must be found (exit 2)
	dune exec bin/setsync_cli.exe -- fuzz --sut seeded-bug --seed 42 --execs 2000 --len 96; \
	  status=$$?; \
	  if [ $$status -ne 2 ]; then \
	    echo "fuzz-smoke: expected exit 2 (violation found), got $$status"; exit 1; \
	  fi

net-smoke: ## net backend gate: bounded exploration passes, BRS fuzz finds the k-set violation, traced CT run validates
	dune exec bin/setsync_cli.exe -- explore --backend net --check detector \
	  -n 2 --depth 14 --delta 1 --gst 4
	dune exec bin/setsync_cli.exe -- fuzz --backend net --sut kset \
	  -n 2 -t 1 -k 1 --execs 50 --len 10 --seed 7; \
	  status=$$?; \
	  if [ $$status -ne 2 ]; then \
	    echo "net-smoke: expected exit 2 (BRS k-set violation found), got $$status"; exit 1; \
	  fi
	dune exec bin/setsync_cli.exe -- fd --backend net -n 2 --delta 1 --gst 4 --max-steps 60 \
	  --trace-out /tmp/setsync_ci_net.jsonl --metrics-out /tmp/setsync_ci_net_metrics.json
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_net.jsonl --net-check \
	  --require send,deliver,drop,gst,inflight,ct_stabilized \
	  --metrics /tmp/setsync_ci_net_metrics.json \
	  --require-counter net.sent --require-counter net.delivered \
	  --require-histogram net.delay_adversary --require-histogram net.delay_forced \
	  --require-histogram net.delay_fifo
	dune exec bin/setsync_cli.exe -- solve --backend net --solver kset \
	  -t 2 -k 2 -n 5 --crashes 1 --delta 2 --resend-after 8 \
	  --trace-out /tmp/setsync_ci_net_solve.jsonl
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_net_solve.jsonl --net-check \
	  --require send,deliver,drop,gst

trace-smoke: ## causal-tracing gate: traced net CT run -> trace-report finds a critical path ending at ct_stabilized whose attributed delay telescopes to the stabilization step
	dune exec bin/setsync_cli.exe -- fd --backend net -n 2 --delta 1 --gst 4 --max-steps 60 \
	  --trace-out /tmp/setsync_ci_tracereport.jsonl
	dune exec bin/setsync_cli.exe -- trace-report /tmp/setsync_ci_tracereport.jsonl \
	  --require-stabilized --json /tmp/setsync_ci_tracereport.json

cli-smoke: ## CLI gate: impossible explore flag combinations fail loudly (exit 1 + stderr), honored approximations warn, unwritable output paths and bad flag values fail before the run (exit 124 + stderr)
	@set -e; \
	run() { dune exec bin/setsync_cli.exe -- "$$@" >/dev/null 2>/tmp/setsync_ci_cli.err; }; \
	expect() { want=$$1; shift; \
	  if run "$$@"; then status=0; else status=$$?; fi; \
	  if [ $$status -ne $$want ]; then \
	    echo "cli-smoke: setsync $$* -> exit $$status, wanted $$want"; \
	    cat /tmp/setsync_ci_cli.err; exit 1; \
	  fi; }; \
	stderr_has() { grep -q "$$1" /tmp/setsync_ci_cli.err || { \
	  echo "cli-smoke: stderr missing '$$1'"; cat /tmp/setsync_ci_cli.err; exit 1; }; }; \
	expect 0 explore --check kset --backend net -n 2 -t 1 -k 1 --depth 2 --fingerprints; \
	stderr_has "warning: --fingerprints"; \
	expect 1 explore --check kset --backend net -n 2 -t 1 -k 1 --depth 2 --engine snapshot; \
	stderr_has "machine-form"; \
	expect 1 explore --check kset --depth 2 --symmetry --fingerprints; \
	stderr_has "requires --engine snapshot"; \
	expect 1 explore --check kset --depth 2 --engine snapshot --symmetry; \
	stderr_has "add --fingerprints"; \
	expect 1 explore --check kset --depth 2 --engine snapshot --bfs; \
	stderr_has "depth-first only"; \
	expect 1 explore --check timeliness -n 2 --depth 2 --engine snapshot; \
	stderr_has "breadth-first"; \
	expect 0 explore --check kset -n 2 -t 1 -k 1 --depth 6 --engine snapshot --symmetry --fingerprints; \
	expect 124 solve --trace-out /nonexistent/x.jsonl; \
	stderr_has "cannot write the --trace-out file"; \
	expect 124 solve --backend net --trace-out /nonexistent/x.jsonl; \
	stderr_has "cannot write the --trace-out file"; \
	expect 124 fd --metrics-out /nonexistent/m.json; \
	stderr_has "cannot write the --metrics-out file"; \
	expect 124 fd -n 0; stderr_has "setsync: Proc.check_n"; \
	expect 124 fd -n 3 -t 5; stderr_has "setsync: Problem.make"; \
	expect 124 fd --bound=-1; stderr_has "setsync: Scenario: bound"; \
	expect 124 explore --depth=-1; stderr_has "setsync: --depth must be >= 0"; \
	expect 124 fuzz -n 1; stderr_has "setsync: Kanti_omega"; \
	expect 124 fuzz --len=0; stderr_has "setsync: --len must be >= 1"; \
	expect 124 explore --backend net -n 1; stderr_has "setsync: Adversary.brs_kset"; \
	expect 124 solve --backend net --solver paxos -n 2 -t 1 -k 1 --delta 0; \
	stderr_has "setsync: Adversary.make: delta"; \
	expect 124 figure1 --length=-1; stderr_has "setsync: --length must be >= 0"; \
	expect 124 analyze --length=-5; stderr_has "setsync: --length must be >= 0"; \
	echo "cli-smoke: ok"

ci: ## the full gate: format check, build, tests, E11 smoke + guard, traced-run check, fuzz + net + trace + CLI smokes
	$(MAKE) fmt-check
	dune build
	dune runtest
	$(MAKE) bench-quick
	$(MAKE) bench-guard
	$(MAKE) obs-check
	$(MAKE) fuzz-smoke
	$(MAKE) net-smoke
	$(MAKE) trace-smoke
	$(MAKE) cli-smoke

clean:
	dune clean
