# Every check has one recipe, here; the CI pipeline (.github/workflows/ci.yml)
# runs these targets rather than copies of them. CI installs staticcheck with
# `make staticcheck-install`; locally `make lint` runs it when present and
# prints the install hint otherwise, so `make check` works on a bare Go
# toolchain.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race lint vet staticcheck staticcheck-install check bench-smoke threaded-gate cache-smoke discover-smoke triage-smoke examples-smoke fuzz-smoke worker-smoke traffic-cover perfbench-test bench-pairs

all: check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# Under CI (CI is set) a missing staticcheck fails rather than being skipped.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run:"; \
		echo "  make staticcheck-install"; \
		[ -z "$$CI" ]; \
	fi

staticcheck-install:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)

# lint = gofmt (check only) + go vet + staticcheck. The repo's structural
# invariants (cache-key flip tables cover every options and Job field; the
# threaded interpreter's exec switch handles every op* constant) are tier-1
# tests: TestJobKeySensitivity in internal/dispatch and
# TestExecHandlesEveryOpcode in internal/interp.
lint: vet staticcheck
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

check: lint build

# The sweep benchmark (perfbench/, declared in BENCHMARK.json) is a module of
# its own, so `go build ./...` and `go test ./...` never compile it. This
# vets and tests it against the checkout's packages, so an internal API
# change that breaks it fails here rather than when the benchmark is run.
# About 10 s. A CI step.
perfbench-test:
	cd perfbench && $(GO) vet . && $(GO) test .

# One iteration of every benchmark — includes BenchmarkSuccessRateBatched,
# whose tree-walker-vs-batched corpus hit-parity assertion runs even at 1x.
# A CI step: it keeps the benchmarks compiling and running between
# perf-focused changes without paying for real measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Dispatch-loop regression guard, a CI step: BenchmarkGuestExec alone, on the
# root package at the default benchtime (no other package benchmarking
# alongside it), must report a threaded-vs-tree speedup above 1.0 for every
# application. Read the ratio from here, never from bench-smoke's
# one-iteration run, where one ratio once dropped to 1.007 on unchanged code.
# Its output is kept in BENCH_GATE.txt.
threaded-gate:
	@$(GO) test -run '^$$' -bench '^BenchmarkGuestExec$$' . >BENCH_GATE.txt || { cat BENCH_GATE.txt; exit 1; }; \
	cat BENCH_GATE.txt; \
	awk '/threaded-vs-tree/ { \
	  found++; \
	  for (i = 1; i < NF; i++) if ($$(i+1) == "threaded-vs-tree" && $$i + 0 <= 1.0) { \
	    print "threaded-vs-tree speedup not > 1.0 on: " $$0; bad = 1 \
	  } \
	} \
	END { \
	  if (found == 0) { print "no threaded-vs-tree metric in BENCH_GATE.txt"; exit 1 } \
	  exit bad \
	}' BENCH_GATE.txt

# Cross-process cache smoke: run diode-tables twice against one shared
# -cache-dir and assert the warm run's stdout is byte-identical while every
# job was served from the cache (hits>0, misses=0 on the stderr stats line).
# Table 1 has no wall-clock columns, so byte-equality is exact. Between the
# two, `diode -app vlc` hunts against the same directory and must also miss
# nothing: both cmds derive a site's job seed the same way, so the cold
# diode-tables run already stored every vlc hunt.
cache-smoke:
	$(GO) build -o bin/diode-tables ./cmd/diode-tables
	$(GO) build -o bin/diode ./cmd/diode
	@dir=$$(mktemp -d); out=$$(mktemp -d); \
	./bin/diode-tables -table 1 -cache-dir "$$dir" >"$$out/cold.txt" 2>"$$out/cold.err" || { cat "$$out/cold.err"; exit 1; }; \
	./bin/diode -app vlc -cache-dir "$$dir" >"$$out/diode.txt" 2>"$$out/diode.err" || { cat "$$out/diode.err"; exit 1; }; \
	diode_line=$$(grep 'cache:' "$$out/diode.err"); \
	case "$$diode_line" in *" misses=0 "*) ;; *) echo "cache smoke failed: diode re-ran jobs diode-tables stored: $$diode_line"; exit 1;; esac; \
	./bin/diode-tables -table 1 -cache-dir "$$dir" >"$$out/warm.txt" 2>"$$out/warm.err" || { cat "$$out/warm.err"; exit 1; }; \
	cmp "$$out/cold.txt" "$$out/warm.txt" || { echo "cache smoke failed: warm tables differ from cold"; exit 1; }; \
	grep -q 'cache: hits=0 ' "$$out/cold.err" || { echo "cache smoke failed: cold run reported hits"; cat "$$out/cold.err"; exit 1; }; \
	warm_line=$$(grep 'cache:' "$$out/warm.err"); \
	case "$$warm_line" in *" misses=0 "*) ;; *) echo "cache smoke failed: warm run executed jobs: $$warm_line"; exit 1;; esac; \
	case "$$warm_line" in *"cache: hits=0 "*) echo "cache smoke failed: warm run had no hits: $$warm_line"; exit 1;; esac; \
	echo "cache smoke ok: $$warm_line"; \
	rm -rf "$$dir" "$$out"

# Site-discovery smoke: run `diode -sites` for every application and diff the
# listing against the checked-in goldens (internal/apps/testdata/discovered).
# Catches a discovery pass or guest-program edit that changes the site surface
# without a matching `go test ./internal/apps -update-discovered` run, and
# proves the CLI listing is byte-identical to what the library emits.
discover-smoke:
	$(GO) build -o bin/diode ./cmd/diode
	@for app in dillo vlc swfplay cwebp imagemagick gifview tifthumb; do \
		./bin/diode -app "$$app" -sites > "bin/$$app.sites" || exit 1; \
		cmp "bin/$$app.sites" "internal/apps/testdata/discovered/$$app.golden" || { \
			echo "discover smoke failed: $$app listing differs from golden"; exit 1; }; \
		rm -f "bin/$$app.sites"; \
	done; \
	echo "discover smoke ok: 7 listings match goldens"

# Triage smoke: run `diode -triage` for every application and diff the
# abstract-interpretation triage listing against the checked-in goldens
# (internal/apps/testdata/triage). Catches an absint or guest-program edit
# that changes a triage verdict without a matching
# `go test ./internal/apps -update-triage` run.
triage-smoke:
	$(GO) build -o bin/diode ./cmd/diode
	@for app in dillo vlc swfplay cwebp imagemagick gifview tifthumb; do \
		./bin/diode -app "$$app" -triage > "bin/$$app.triage" || exit 1; \
		cmp "bin/$$app.triage" "internal/apps/testdata/triage/$$app.golden" || { \
			echo "triage smoke failed: $$app listing differs from golden"; exit 1; }; \
		rm -f "bin/$$app.triage"; \
	done; \
	echo "triage smoke ok: 7 listings match goldens"

# Examples smoke: build and run the four examples. quickstart, wavhunt and
# customtarget are deterministic (per-site seeding makes them independent of
# GOMAXPROCS), so their stdout must match the checked-in goldens under
# examples/testdata byte for byte. batchaudit's tables carry wall-clock
# columns, so only its Table 1 total row (whitespace squeezed) is checked.
# Regenerate a golden with `go run ./examples/NAME > examples/testdata/NAME.golden`.
examples-smoke:
	@mkdir -p bin/examples
	@for ex in quickstart wavhunt customtarget batchaudit; do \
		$(GO) build -o "bin/examples/$$ex" "./examples/$$ex" || exit 1; \
	done
	@for ex in quickstart wavhunt customtarget; do \
		"bin/examples/$$ex" >"bin/examples/$$ex.out" || exit 1; \
		cmp "bin/examples/$$ex.out" "examples/testdata/$$ex.golden" || { \
			echo "examples smoke failed: $$ex output differs from its golden"; \
			diff "examples/testdata/$$ex.golden" "bin/examples/$$ex.out"; exit 1; }; \
	done; \
	bin/examples/batchaudit >bin/examples/batchaudit.out 2>bin/examples/batchaudit.err || { cat bin/examples/batchaudit.err; exit 1; }; \
	row=$$(sed -n 's/  */ /g; s/ *$$//; /^Total 40 /p' bin/examples/batchaudit.out); \
	[ "$$row" = "Total 40 | 40 14 | 14 17 | 17 9 | 9" ] || { \
		echo "examples smoke failed: batchaudit Table 1 total is '$$row'"; cat bin/examples/batchaudit.out; exit 1; }; \
	rm -rf bin/examples; \
	echo "examples smoke ok: 3 outputs match goldens; batchaudit: $$row"

# Short live-fuzz pass: the per-format fix-up invariant targets, the
# cross-layer FuzzHunt engine-robustness target, the dispatch-layer
# Job/Result codec round-trip target, the differential
# threaded-vs-tree-walker Machine parity target, the abstract-interpretation
# soundness target, and the compiled-vs-recursive formula evaluator target.
# A CI step.
fuzz-smoke:
	@for target in FuzzSPNG FuzzSWAV FuzzSJPG FuzzSXWD FuzzSGIF FuzzSTIF; do \
		$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime 5s ./internal/formats || exit 1; \
	done
	$(GO) test -run '^FuzzHunt$$' -fuzz '^FuzzHunt$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^FuzzJobResultCodec$$' -fuzz '^FuzzJobResultCodec$$' -fuzztime 5s ./internal/dispatch
	$(GO) test -run '^FuzzMachineParity$$' -fuzz '^FuzzMachineParity$$' -fuzztime 5s ./internal/interp
	$(GO) test -run '^FuzzAbsintSoundness$$' -fuzz '^FuzzAbsintSoundness$$' -fuzztime 5s ./internal/absint
	$(GO) test -run '^FuzzCompiledBool$$' -fuzz '^FuzzCompiledBool$$' -fuzztime 5s ./internal/bv

# End-to-end work-queue smoke: build the real worker binary, pipe a three-job
# batch through its stdin/stdout protocol, and assert the verdicts (the
# classification is seed-stable, so any seed works). A CI step.
worker-smoke:
	$(GO) build -o bin/diode-worker ./cmd/diode-worker
	@out=$$(printf '%s\n' \
	  '{"id":1,"kind":"hunt","app":"dillo","site":"dillo:png.c@203","seed":7,"opts":{}}' \
	  '{"id":2,"kind":"hunt","app":"vlc","site":"vlc:block.c@54","seed":8,"opts":{}}' \
	  '{"id":3,"kind":"hunt","app":"gifview","site":"gifview:gif.c@183","seed":9,"opts":{}}' \
	  | ./bin/diode-worker); \
	results=$$(printf '%s\n' "$$out" | grep -c '"type":"result"'); \
	exposed=$$(printf '%s\n' "$$out" | grep -c '"verdict":"exposed"'); \
	unsat=$$(printf '%s\n' "$$out" | grep -c '"verdict":"unsatisfiable"'); \
	if [ "$$results" -ne 3 ] || [ "$$exposed" -ne 2 ] || [ "$$unsat" -ne 1 ]; then \
	  echo "worker smoke failed: results=$$results exposed=$$exposed unsat=$$unsat (want 3/2/1)"; \
	  printf '%s\n' "$$out"; exit 1; \
	fi; \
	echo "worker smoke ok: 3 jobs -> 2 exposed, 1 unsatisfiable"

# Traffic coverage: build the sweep benchmark (perfbench/) with coverage over
# every diode package, run each of its workloads for about 3 s, and list the
# functions none of them executed (0.0% in `go tool covdata func`, perfbench's
# own code left out) with a count. It finds code no workload reaches —
# candidates for deletion, or for a test that covers them instead. Not a CI
# step; everything it writes stays under .bench_build/.
traffic-cover:
	@out="$(CURDIR)/.bench_build"; cov="$$out/traffic-cover"; \
	rm -rf "$$cov"; mkdir -p "$$cov/data" "$$out/tmp" "$$out/config"; \
	export GOCACHE="$$out/gocache" GOMODCACHE="$$out/gomod" GOTMPDIR="$$out/tmp" XDG_CONFIG_HOME="$$out/config" \
		GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod; \
	(cd perfbench && $(GO) build -cover -coverpkg=diode/... -o "$$cov/perfbench" .) || exit 1; \
	for w in paper-sweep arith-surface warm-resweep; do \
		GOCOVERDIR="$$cov/data" "$$cov/perfbench" --workload "$$w" --seed 1 --seconds 3 --trace 0 \
			>"$$cov/$$w.out" 2>&1 || { cat "$$cov/$$w.out"; exit 1; }; \
	done; \
	$(GO) tool covdata func -i "$$cov/data" | awk '$$NF == "0.0%" && $$1 !~ /^diode\/perfbench\//' >"$$cov/uncovered.txt"; \
	cat "$$cov/uncovered.txt"; \
	echo "traffic-cover: $$(wc -l <"$$cov/uncovered.txt") functions no workload executes"

# Paired benchmark comparison, the measurement a change reports against its
# parent: `make bench-pairs BASE=<rev> WORKLOAD=<name> PAIRS=<n> SECONDS=<s>`
# exports BASE with git archive into .bench_build/base-<rev> and runs
# perfbench PAIRS times in the export and in the checkout, alternating which
# side goes first. It prints each run's digest and end-to-end metrics, then
# per metric the medians, the base quartile spread and how many pairs the
# change read lower. Runs use seed 1. Not a CI step; everything it writes
# stays under .bench_build/.
WORKLOAD ?= paper-sweep
PAIRS ?= 5
SECONDS ?= 30
bench-pairs:
	@[ -n "$(BASE)" ] || { echo "bench-pairs: set BASE=<rev>"; exit 2; }
	bash scripts/bench-pairs.sh "$(BASE)" "$(WORKLOAD)" "$(PAIRS)" "$(SECONDS)"
