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

bench-guard: ## pinned rows: path replay's exact counts on net CT against per-state (E11e), zero-replay snapshot runs against a per-state reference, and a symmetric run that visits what plain fingerprints visit (E11f), an exhaustive k-set check deep enough to decide (E11h), the seeded fuzz hunt's exact search counts (F1), net stabilization (N1), tracing overhead (N1t, P9), round-batching cost + net-vs-shm verdicts (N2)
	dune exec bin/bench_guard.exe -- BENCH_quick.json

obs-check: ## traced explorations, per-state (replay events) and default (snapshot: machine steps); validate the emitted JSONL (byte-canonical lines)/Chrome/metrics files
	dune exec bin/setsync_cli.exe -- explore --check detector -n 2 -t 1 -k 1 \
	  --depth 6 --domains 2 --engine per-state \
	  --trace-out /tmp/setsync_ci_trace.jsonl --metrics-out /tmp/setsync_ci_metrics.json
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_trace.jsonl \
	  --chrome /tmp/setsync_ci_trace.chrome.json \
	  --metrics /tmp/setsync_ci_metrics.json \
	  --require replay,expand,sleep_prune \
	  --require-counter explorer.states --require-counter explorer.replay_steps
	dune exec bin/setsync_cli.exe -- explore --check detector -n 2 -t 1 -k 1 \
	  --depth 6 --domains 2 \
	  --trace-out /tmp/setsync_ci_trace_default.jsonl \
	  --metrics-out /tmp/setsync_ci_metrics_default.json
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_trace_default.jsonl \
	  --chrome /tmp/setsync_ci_trace_default.chrome.json \
	  --metrics /tmp/setsync_ci_metrics_default.json \
	  --require expand,sleep_prune \
	  --require-counter explorer.states --require-counter explorer.machine_steps

fuzz-smoke: ## fixed-seed fuzz runs: the seeded-bug SUT must be found (exit 2) and its --repro replay must print the same report apart from the time: line, at --len 96 and at --len 384 (a 176-step found prefix, so runs view a tally buffer that keeps growing); the faithful control and the Theorem-24 solver (one live machine instance per hunt) must pass (exit 0); a net k-set hunt (fresh instances per run) must pass, print the same report under --repro, and see exactly 10192 distinct states, so novelty keys that depend on the process or merge states fail
	dune exec bin/setsync_cli.exe -- fuzz --sut seeded-bug --seed 42 --execs 2000 --len 96 \
	  >/tmp/setsync_ci_fuzz.out; \
	  status=$$?; cat /tmp/setsync_ci_fuzz.out; \
	  if [ $$status -ne 2 ]; then \
	    echo "fuzz-smoke: expected exit 2 (violation found), got $$status"; exit 1; \
	  fi
	dune exec bin/setsync_cli.exe -- fuzz --sut seeded-bug --repro 42 --execs 2000 --len 96 \
	  >/tmp/setsync_ci_fuzz_repro.out; \
	  status=$$?; \
	  if [ $$status -ne 2 ]; then \
	    echo "fuzz-smoke: --repro expected exit 2, got $$status"; exit 1; \
	  fi
	grep -v '^time:' /tmp/setsync_ci_fuzz.out >/tmp/setsync_ci_fuzz.cmp
	grep -v '^time:' /tmp/setsync_ci_fuzz_repro.out >/tmp/setsync_ci_fuzz_repro.cmp
	diff /tmp/setsync_ci_fuzz.cmp /tmp/setsync_ci_fuzz_repro.cmp || { \
	  echo "fuzz-smoke: --repro 42 printed a different report"; exit 1; }
	dune exec bin/setsync_cli.exe -- fuzz --sut fixed --seed 42 --execs 300 --len 96
	dune exec bin/setsync_cli.exe -- fuzz --sut kset -n 3 -t 1 -k 1 --crashes 1 --seed 1 \
	  --execs 300 --len 96
	dune exec bin/setsync_cli.exe -- fuzz --sut seeded-bug -n 3 -t 2 -k 1 --seed 42 \
	  --execs 2000 --len 384 >/tmp/setsync_ci_fuzz_long.out; \
	  status=$$?; cat /tmp/setsync_ci_fuzz_long.out; \
	  if [ $$status -ne 2 ]; then \
	    echo "fuzz-smoke: long hunt expected exit 2 (violation found), got $$status"; exit 1; \
	  fi
	dune exec bin/setsync_cli.exe -- fuzz --sut seeded-bug -n 3 -t 2 -k 1 --repro 42 \
	  --execs 2000 --len 384 >/tmp/setsync_ci_fuzz_long_repro.out; \
	  status=$$?; \
	  if [ $$status -ne 2 ]; then \
	    echo "fuzz-smoke: long --repro expected exit 2, got $$status"; exit 1; \
	  fi
	grep -v '^time:' /tmp/setsync_ci_fuzz_long.out >/tmp/setsync_ci_fuzz_long.cmp
	grep -v '^time:' /tmp/setsync_ci_fuzz_long_repro.out >/tmp/setsync_ci_fuzz_long_repro.cmp
	diff /tmp/setsync_ci_fuzz_long.cmp /tmp/setsync_ci_fuzz_long_repro.cmp || { \
	  echo "fuzz-smoke: long --repro 42 printed a different report"; exit 1; }
	dune exec bin/setsync_cli.exe -- fuzz --sut fixed -n 3 -t 2 -k 1 --seed 42 --execs 200 \
	  --len 384
	dune exec bin/setsync_cli.exe -- fuzz --backend net --sut kset -n 3 -t 1 -k 1 --gst 0 \
	  --execs 300 --seed 7 >/tmp/setsync_ci_fuzz_net.out; \
	  status=$$?; cat /tmp/setsync_ci_fuzz_net.out; \
	  if [ $$status -ne 0 ]; then \
	    echo "fuzz-smoke: net kset hunt expected exit 0, got $$status"; exit 1; \
	  fi
	dune exec bin/setsync_cli.exe -- fuzz --backend net --sut kset -n 3 -t 1 -k 1 --gst 0 \
	  --execs 300 --repro 7 >/tmp/setsync_ci_fuzz_net_repro.out; \
	  status=$$?; \
	  if [ $$status -ne 0 ]; then \
	    echo "fuzz-smoke: net kset --repro expected exit 0, got $$status"; exit 1; \
	  fi
	grep -v '^time:' /tmp/setsync_ci_fuzz_net.out >/tmp/setsync_ci_fuzz_net.cmp
	grep -v '^time:' /tmp/setsync_ci_fuzz_net_repro.out >/tmp/setsync_ci_fuzz_net_repro.cmp
	diff /tmp/setsync_ci_fuzz_net.cmp /tmp/setsync_ci_fuzz_net_repro.cmp || { \
	  echo "fuzz-smoke: net kset --repro 7 printed a different report"; exit 1; }
	grep -q '10192 distinct digests' /tmp/setsync_ci_fuzz_net.out || { \
	  echo "fuzz-smoke: net kset hunt no longer sees 10192 distinct digests"; exit 1; }

net-smoke: ## net backend gate: bounded exploration passes, BRS fuzz finds the k-set violation, traced CT run and traced batched/per-op solves validate
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
	dune exec bin/setsync_cli.exe -- solve --backend net --solver paxos --net-mode per-op \
	  -n 7 --crashes 2 --delta 3 --gst 20 \
	  --trace-out /tmp/setsync_ci_net_perop.jsonl
	dune exec bin/obs_validate.exe -- \
	  --trace /tmp/setsync_ci_net_perop.jsonl --net-check \
	  --require send,deliver,drop,gst

trace-smoke: ## causal-tracing gate: traced net CT run -> its JSONL validates (byte-canonical lines) and trace-report finds a critical path ending at ct_stabilized whose attributed delay telescopes to the stabilization step
	dune exec bin/setsync_cli.exe -- fd --backend net -n 2 --delta 1 --gst 4 --max-steps 60 \
	  --trace-out /tmp/setsync_ci_tracereport.jsonl
	dune exec bin/obs_validate.exe -- --trace /tmp/setsync_ci_tracereport.jsonl
	dune exec bin/setsync_cli.exe -- trace-report /tmp/setsync_ci_tracereport.jsonl \
	  --require-stabilized --json /tmp/setsync_ci_tracereport.json

cli-smoke: ## CLI gate: impossible or inert explore flag combinations fail loudly (exit 1 + stderr), honored approximations warn, a fuzz hunt too short to leave its first state warns, a net k-set violation prints its reason on one line, three seeded fuzz hunts shrink to their pinned lengths in their pinned ddmin test counts (a machine session's track, and fresh net instances), the search summary names the engine that ran (at two domains too: per-state under --bfs, snapshot on a depth-first shm run, path replay with its pinned steps on net CT), the n=3 net CT tree the explore benchmark walks keeps its pinned visited and replay counts, a replay-capped net run spends at most its step cap, explore --progress prints the run's counts ([Ns] visited ..., frontier peak F) with the movement of the engine that ran from its first line, exact fingerprints visit the pinned count on a kset check, a fingerprint-off kset check one step past the first decision (depth 28, where two reads commute) runs to its pinned count, unwritable output paths (--trace-out, --metrics-out, --search-summary, trace-report --json) and bad flag values, negative budgets, k > t kset requests and adaptive solves with t < k included, fail before the run (exit 124 + stderr); the Definition-1 numbers of seeded figure1/analyze runs, a short adaptive solve on an unsolvable cell, a seeded shm fd run with a crash, a trivially solvable solve and a net paxos solve stay pinned
	@set -e; \
	run() { dune exec bin/setsync_cli.exe -- "$$@" >/tmp/setsync_ci_cli.out 2>/tmp/setsync_ci_cli.err; }; \
	expect() { want=$$1; shift; \
	  if run "$$@"; then status=0; else status=$$?; fi; \
	  if [ $$status -ne $$want ]; then \
	    echo "cli-smoke: setsync $$* -> exit $$status, wanted $$want"; \
	    cat /tmp/setsync_ci_cli.err; exit 1; \
	  fi; }; \
	stderr_has() { grep -q "$$1" /tmp/setsync_ci_cli.err || { \
	  echo "cli-smoke: stderr missing '$$1'"; cat /tmp/setsync_ci_cli.err; exit 1; }; }; \
	stdout_has() { grep -q "$$1" /tmp/setsync_ci_cli.out || { \
	  echo "cli-smoke: stdout missing '$$1'"; cat /tmp/setsync_ci_cli.out; exit 1; }; }; \
	expect 0 explore --check kset --backend net -n 2 -t 1 -k 1 --depth 2 --fingerprints; \
	stderr_has "warning: --fingerprints"; \
	expect 1 explore --check kset --backend net -n 2 -t 1 -k 1 --depth 2 --engine snapshot; \
	stderr_has "machine-form"; \
	expect 0 explore --check kset -n 3 -t 1 -k 1 --depth 12 --fingerprints; \
	stdout_has "^visited 455 (fp-pruned "; \
	expect 0 explore --check kset -n 3 -t 1 -k 1 --depth 28; \
	stdout_has "^visited 21088 (fp-pruned 0, "; \
	expect 1 explore --check kset --depth 2 --engine snapshot --bfs; \
	stderr_has "depth-first only"; \
	expect 1 explore --check timeliness -n 2 --depth 2 --engine snapshot; \
	stderr_has "depth-first only"; \
	expect 1 explore --check kset -n 3 -t 1 -k 1 --depth 8 --engine snapshot --max-replay-steps 1; \
	stderr_has "never binds"; \
	expect 1 explore --check timeliness -n 2 --depth 4 --fingerprints; \
	stderr_has "drop --fingerprints"; \
	expect 2 explore --check timeliness -n 2 --depth 4 --progress 0 --search-summary -; \
	stdout_has '"engine":"per_state"'; \
	expect 0 explore --check kset -n 2 -t 1 -k 1 --depth 4 --bfs --domains 2 --progress 0 --search-summary -; \
	stdout_has '"engine":"per_state"'; \
	expect 0 explore --check kset -n 2 -t 1 -k 1 --depth 4 --domains 2 --progress 0 --search-summary -; \
	stdout_has '"engine":"snapshot"'; \
	expect 0 explore --backend net --check detector -n 2 --depth 10 --domains 2 --search-summary -; \
	stdout_has '"engine":"path"'; \
	stdout_has '"replay_steps":10240,'; \
	expect 0 explore --backend net --check detector -n 3 --depth 9; \
	stdout_has '^visited 29524 (fp-pruned 0, commute-pruned 0, safety-checked 0) replays 19683/177147 steps'; \
	expect 0 explore --backend net --check detector -n 2 --depth 12 --max-replay-steps 100; \
	stdout_has '^visited [0-9]* (.*) replays [0-9]*/\([0-9]\|[1-9][0-9]\|100\) steps, .*TRUNCATED'; \
	expect 0 explore --check kset -n 3 -t 1 -k 1 --depth 7 --progress 0.000001; \
	stderr_has '^\[ *[0-9.]*s\] visited [0-9]* (fp-pruned .*) .*, frontier peak [0-9]*$$'; \
	if grep -q "replays" /tmp/setsync_ci_cli.err; then \
	  echo "cli-smoke: a snapshot run's progress names replays"; cat /tmp/setsync_ci_cli.err; exit 1; fi; \
	stderr_has '^\[ *[0-9.]*s\] visited 0 (.*) machine 0 steps, 0 restores,'; \
	expect 0 explore --check kset -n 3 -t 1 -k 1 --depth 0; \
	stdout_has '^visited 1 (.*) machine 0 steps, 0 restores, max depth 0'; \
	expect 124 explore --check kset -t 1 -k 2 -n 3 --depth 8; stderr_has "k <= t"; \
	expect 124 fuzz --sut kset -t 1 -k 2 -n 3 --execs 10; stderr_has "k <= t"; \
	expect 124 solve --adversary adaptive -t 1 -k 2 -n 4 --seed 6 --max-steps 100000; stderr_has "k <= t"; \
	expect 124 solve --trace-out /nonexistent/x.jsonl; \
	stderr_has "cannot write the --trace-out file"; \
	expect 124 solve --backend net --trace-out /nonexistent/x.jsonl; \
	stderr_has "cannot write the --trace-out file"; \
	expect 124 fd --metrics-out /nonexistent/m.json; \
	stderr_has "cannot write the --metrics-out file"; \
	expect 124 explore --check kset -n 2 -t 1 -k 1 --depth 2 --search-summary /nonexistent/s.json; \
	stderr_has "cannot write the --search-summary file"; \
	expect 0 fd -n 2 -t 1 -k 1 --trace-out /tmp/setsync_ci_cli_trace.jsonl; \
	expect 124 trace-report /tmp/setsync_ci_cli_trace.jsonl --json /nonexistent/r.json; \
	stderr_has "cannot write the --json file"; \
	expect 124 fd -n 0; stderr_has "setsync: Proc.check_n"; \
	expect 124 fd -n 3 -t 5; stderr_has "setsync: Problem.make"; \
	expect 124 fd --bound=-1; stderr_has "setsync: Scenario: bound"; \
	expect 124 explore --depth=-1; stderr_has "setsync: --depth must be >= 0"; \
	expect 124 fuzz -n 1; stderr_has "setsync: Kanti_omega"; \
	expect 124 fuzz --len=0; stderr_has "setsync: --len must be >= 1"; \
	expect 0 fuzz -n 8 --execs 30 --seed 1; stdout_has "no violation found"; \
	stderr_has "warning: the hunt saw 1 distinct state: --len 96 is likely too short for n=8"; \
	expect 2 fuzz --sut kset --backend net -n 3 -t 1 -k 1; \
	stdout_has '^  reason: 2 distinct values decided (0, 10), at most 1 allowed$$'; \
	expect 2 fuzz --sut seeded-bug -n 3 -t 2 -k 1 --seed 2 --execs 2000 --len 96; \
	stdout_has '^  shrunk (18 steps, 445 ddmin tests): '; \
	expect 2 fuzz --sut seeded-bug --seed 42 --execs 2000 --len 384; \
	stdout_has '^  shrunk (8 steps, 586 ddmin tests): '; \
	expect 2 fuzz --backend net --sut kset -n 2 -t 1 -k 1 --execs 50 --len 10 --seed 7; \
	stdout_has '^  shrunk (10 steps, 49 ddmin tests): '; \
	expect 124 explore --backend net -n 1; stderr_has "setsync: Adversary.brs_kset"; \
	expect 124 solve --backend net --solver paxos -n 2 -t 1 -k 1 --delta 0; \
	stderr_has "setsync: Adversary.make: delta"; \
	expect 124 solve --backend net --max-steps=-1; \
	stderr_has "setsync: --max-steps must be >= 0"; \
	expect 124 solve --backend net --gst 5 --resend-after 0; \
	stderr_has "setsync: --resend-after must be >= 1"; \
	expect 124 solve --backend net --solver kset --resend-after=-1; \
	stderr_has "setsync: --resend-after must be >= 1"; \
	expect 124 figure1 --length=-1; stderr_has "setsync: --length must be >= 0"; \
	expect 124 analyze --length=-5; stderr_has "setsync: --length must be >= 0"; \
	expect 124 fuzz --execs=-1; stderr_has "setsync: --execs must be >= 0"; \
	expect 124 fuzz --max-replay-steps=-5; \
	stderr_has "setsync: Budget.limits: max_replay_steps must be >= 0"; \
	expect 124 fuzz --max-seconds=-1; stderr_has "setsync: Budget.limits: max_seconds must be >= 0"; \
	expect 124 explore --max-states=-1; stderr_has "setsync: Budget.limits: max_states must be >= 0"; \
	expect 124 explore --max-replay-steps=-1; \
	stderr_has "setsync: Budget.limits: max_replay_steps must be >= 0"; \
	expect 124 explore --max-seconds=-1; \
	stderr_has "setsync: Budget.limits: max_seconds must be >= 0"; \
	expect 0 figure1 --length 10000; \
	stdout_has "{p1} wrt {q}         observed bound over 10000 steps: 72"; \
	stdout_has "{p2} wrt {q}         observed bound over 10000 steps: 72"; \
	stdout_has "{p1,p2} wrt {q}      observed bound over 10000 steps: 2"; \
	expect 0 analyze -n 4 --seed 3 --length 5000; \
	stdout_has '^steps per process: 1281 1192 1244 1283$$'; \
	stdout_has '^    12    1   12    9$$'; \
	stdout_has "member of S^1_{2,4} at bound 3: false"; \
	stdout_has "member of S^2_{3,4} at bound 3: false"; \
	stdout_has "member of S^3_{4,4} at bound 3: false"; \
	expect 0 solve -i 2 -j 2 --adversary adaptive --max-steps 20000; \
	stdout_has "S^2_{2,5} \[adaptive, b=3, 0 crashes\]: predicted=false solved=false"; \
	stdout_has "termination=UNDECIDED {p1,p2,p3,p4,p5} decided=0"; \
	stdout_has "witness: {p2,p5} timely wrt {p2,p5} (bound 3)"; \
	expect 0 fd --seed 3 --crashes 1 --max-steps 20000; \
	stdout_has '^run:    run\[n=5 steps=20000 reason=step-budget crashed={p3} halted={}\]$$'; \
	stdout_has '^winnerset:    stable winner {p1,p2} from step 488$$'; \
	expect 0 solve -t 1 -k 2 -n 4; \
	stdout_has '^decisions: p1=100 p2=101 p3=100 p4=100$$'; \
	expect 0 solve --backend net --solver paxos; \
	stdout_has '^routed: 86 ops in 213 steps (2.48 steps/op)$$'; \
	stdout_has '^verdict: ok=true,decided=0;1;2;3;4,values=100$$'; \
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
