# Local developer entry points mirroring the CI pipeline (.github/workflows/
# ci.yml). The container/CI installs staticcheck; locally `make lint` runs it
# when present and prints the install hint otherwise, so `make check` works
# on a bare Go toolchain.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race lint diodelint vet staticcheck check bench-smoke bench-json cache-smoke discover-smoke triage-smoke fuzz-smoke worker-smoke

all: check test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; run:"; \
		echo "  $(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)"; \
	fi

# diodelint = the repo-specific structural linter (cmd/diodelint): checks the
# dispatch cache-key flip tables cover every field of the job options record
# (declared once, as core.Settings in internal/core/options.go) and of
# dispatch.Job, and the threaded interpreter's exec switch handles every op*
# constant.
diodelint:
	$(GO) run ./cmd/diodelint ./internal/dispatch ./internal/interp

# lint = gofmt (check only) + go vet + staticcheck + diodelint, matching CI.
lint: vet staticcheck diodelint
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

check: lint build

# One iteration of every benchmark — includes BenchmarkSuccessRateBatched,
# whose one-shot-vs-batched row-parity assertions run even at 1x.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

# Machine-readable benchmark artifact: one iteration of the headline
# benchmarks (table regeneration, guest execution, dispatch overhead, incremental solving,
# warm-vs-cold caching, sampling strategies, portfolio solving), parsed into
# BENCH_SMOKE.json by cmd/benchjson. CI uploads the JSON so metric history
# survives as build artifacts.
bench-json:
	$(GO) build -o bin/benchjson ./cmd/benchjson
	$(GO) test -run '^$$' \
	  -bench '^(BenchmarkTable1|BenchmarkMachineSteps|BenchmarkGuestExec|BenchmarkDispatchLocal|BenchmarkHuntIncremental|BenchmarkSweepWarmVsCold|BenchmarkSampleModels|BenchmarkPortfolioSolve|BenchmarkTriagePrune)$$' \
	  -benchtime=1x . > BENCH_SMOKE.txt
	cat BENCH_SMOKE.txt
	./bin/benchjson -o BENCH_SMOKE.json < BENCH_SMOKE.txt
	@echo "wrote BENCH_SMOKE.json"

# Cross-process cache smoke: run diode-tables twice against one shared
# -cache-dir and assert the warm run's stdout is byte-identical while every
# job was served from the cache (hits>0, misses=0 on the stderr stats line).
# Table 1 has no wall-clock columns, so byte-equality is exact.
cache-smoke:
	$(GO) build -o bin/diode-tables ./cmd/diode-tables
	@dir=$$(mktemp -d); out=$$(mktemp -d); \
	./bin/diode-tables -table 1 -cache-dir "$$dir" >"$$out/cold.txt" 2>"$$out/cold.err" || { cat "$$out/cold.err"; exit 1; }; \
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

# Short live-fuzz pass: the per-format fix-up invariant targets, the
# cross-layer FuzzHunt engine-robustness target, the dispatch-layer
# Job/Result codec round-trip target, and the differential
# threaded-vs-tree-walker Machine parity target.
fuzz-smoke:
	@for target in FuzzSPNG FuzzSWAV FuzzSJPG FuzzSWEBP FuzzSXWD FuzzSGIF FuzzSTIF; do \
		$(GO) test -run "^$$target$$" -fuzz "^$$target$$" -fuzztime 5s ./internal/formats || exit 1; \
	done
	$(GO) test -run '^FuzzHunt$$' -fuzz '^FuzzHunt$$' -fuzztime 5s ./internal/core
	$(GO) test -run '^FuzzJobResultCodec$$' -fuzz '^FuzzJobResultCodec$$' -fuzztime 5s ./internal/dispatch
	$(GO) test -run '^FuzzMachineParity$$' -fuzz '^FuzzMachineParity$$' -fuzztime 5s ./internal/interp
	$(GO) test -run '^FuzzAbsintSoundness$$' -fuzz '^FuzzAbsintSoundness$$' -fuzztime 5s ./internal/absint

# End-to-end work-queue smoke: build the real worker binary, pipe a three-job
# batch through its stdin/stdout protocol, and assert the verdicts (the
# classification is seed-stable, so any seed works). Mirrors the CI step.
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
