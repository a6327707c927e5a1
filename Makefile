# Local developer entry points mirroring the CI pipeline (.github/workflows/
# ci.yml). The container/CI installs staticcheck; locally `make lint` runs it
# when present and prints the install hint otherwise, so `make check` works
# on a bare Go toolchain.

GO ?= go
STATICCHECK_VERSION ?= 2024.1.1

.PHONY: all build test race lint diodelint vet staticcheck check bench-smoke cache-smoke discover-smoke triage-smoke fuzz-smoke worker-smoke traffic-cover

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
# whose tree-walker-vs-batched corpus hit-parity assertion runs even at 1x.
bench-smoke:
	$(GO) test -run '^$$' -bench=. -benchtime=1x ./...

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

# Short live-fuzz pass: the per-format fix-up invariant targets, the
# cross-layer FuzzHunt engine-robustness target, the dispatch-layer
# Job/Result codec round-trip target, the differential
# threaded-vs-tree-walker Machine parity target, the abstract-interpretation
# soundness target, and the compiled-vs-recursive formula evaluator target.
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
