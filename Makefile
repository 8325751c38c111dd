# Developer targets; CI (.github/workflows/ci.yml) runs `make ci`. The
# gateway's end-to-end checks (restore across a restart, /metrics, one-line
# POSTs over one kept-alive connection) are serve's own tests, run by
# `make test`, as are the worked examples (the Example functions, checked
# against their Output blocks) and the markdown link check over README,
# SCENARIOS and PERFORMANCE (TestDocLinks).

GO ?= go

.PHONY: all build test test-race vet fmt fmt-check lint bench-smoke quality-ledger scenario-smoke fuzz-smoke sweep-smoke quality-gate cover benchmark-check deps-check ci

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Race detector across the whole module — including the experiment layer's
# Runner fan-out and cancellation paths, and the three analyzer corpora +
# self-lint suite in internal/analyze (nothing there is -short-gated, so
# the corpora run under -race here too). -failfast stops on the first racy package; the
# timeout converts a goroutine deadlock into a stack dump instead of a hung
# CI job.
test-race:
	$(GO) test -race -failfast -timeout 10m ./...

vet:
	$(GO) vet ./...

# Repo-specific contract enforcement: the optchain-lint suite (hotpath,
# lockcheck, spawncheck — see PERFORMANCE.md "Static analysis &
# contracts"), which prints one file:line:col line per finding and fails
# on any; CI runs this target.
# staticcheck and govulncheck run when installed (CI installs pinned
# versions; locally they are optional extras, not requirements).
lint:
	$(GO) run ./cmd/optchain-lint ./...
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else echo "staticcheck not installed; skipping (CI runs it)"; fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		echo "govulncheck ./..."; govulncheck ./...; \
	else echo "govulncheck not installed; skipping (CI runs it)"; fi

fmt:
	gofmt -w .

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# One iteration of every benchmark — a compile-and-run smoke pass, not a
# measurement.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Regenerate the committed quality ledger BENCH_quality.jsonl: the
# `quality` sweep's rows at -quick, run cold into a throwaway row cache and
# then resumed from it, so every row is cache-served (wall_seconds 0) and
# regenerating on an unchanged tree leaves the file byte-identical. Commit
# the result only with a change meant to move placement quality.
quality-ledger:
	@tmp="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/optchain-bench -quick -sweep quality -reporter jsonl -cache "$$tmp/cache" -out "$$tmp/cold.jsonl" \
		&& $(GO) run ./cmd/optchain-bench -quick -sweep quality -reporter jsonl -cache "$$tmp/cache" -out BENCH_quality.jsonl \
		|| rc=$$?; \
	rm -rf "$$tmp"; exit $$rc

# Every workload scenario must run end-to-end through a small simulation —
# including a composed mix and a recorded-trace replay — and Metis must
# stream a gap-shaped and a feedback-aware spec like every other strategy.
# A trace shorter than -txs must fail the run, not wait for what never comes.
scenario-smoke:
	$(GO) run ./cmd/optchain-sim -workload hotspot -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -workload burst -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -workload adversarial -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -workload drift -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -workload bitcoin -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -workload "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15" -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -strategy Metis -workload burst -txs 5000 -validators 8
	$(GO) run ./cmd/optchain-sim -strategy Metis -workload "mix:bitcoin=0.6,hotspot=0.25,adversarial=0.15" -txs 5000 -validators 8
	$(GO) run ./cmd/tangen -n 3000 -o smoke-replay.tan
	$(GO) run ./cmd/optchain-sim -workload "replay:smoke-replay.tan,mod=(burst:boost=4)" -txs 3000 -validators 8
	! $(GO) run ./cmd/optchain-sim -workload replay:smoke-replay.tan -txs 4000 -validators 8
	rm -f smoke-replay.tan

# Short fuzz passes: the dataset decoder (panic-safety + round-trip), the
# one row-file reader (DecodeRows and the row cache's header binding must
# reject arbitrary bytes with ErrBadCache, never panic) and the gateway's
# line codec against its oracle (the request scanner takes a line only as
# json.Unmarshal would, the response encoder writes json.Encoder's bytes),
# the two state decoders (an engine snapshot, read into an OptChain, a
# Greedy and an OmniLedger engine, or a gateway state file, whose envelope
# takes uvarints by the snapshot's rules, is refused with its typed error
# or restores a working engine; the seeds are kilobytes long, so minimising
# every new input would eat the whole pass), the T2S restore against its
# vector-by-vector oracle (both reading from the section the output counts
# of live transactions alone and the count of late references; a clear bit
# is a retired transaction, with nothing else kept of it), the generators'
# log-uniform age draw against int(math.Pow),
# and the placers' support select against Alg. 1's dense select.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime 10s ./internal/dataset
	$(GO) test -run '^$$' -fuzz FuzzDiffRows -fuzztime 10s ./experiment
	$(GO) test -run '^$$' -fuzz FuzzRequestLine -fuzztime 10s ./serve
	$(GO) test -run '^$$' -fuzz FuzzResponseLine -fuzztime 10s ./serve
	$(GO) test -run '^$$' -fuzz FuzzReadSnapshot -fuzztime 10s -fuzzminimizetime 0 .
	$(GO) test -run '^$$' -fuzz FuzzLoadState -fuzztime 10s -fuzzminimizetime 0 ./serve
	$(GO) test -run '^$$' -fuzz FuzzRestoreState -fuzztime 10s -fuzzminimizetime 0 ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzLogUniformAge -fuzztime 10s ./internal/stats
	$(GO) test -run '^$$' -fuzz FuzzSelect -fuzztime 10s ./internal/core

# Tiny 2x2 sweep through the JSONL reporter into a fresh row cache, then
# an exact -diff of the cache file against the jsonl output: both row
# files read back through DecodeRows and hold the same cells with the same
# metrics, so the experiment layer's data path (cells streaming their
# workload, stable row identity, machine-readable output, the cache) stays
# working, not just compilable. Then the quick Table I sweep through the
# fidelity reporter, which must print the four k=16 claims with paper
# value, ours and ratio.
sweep-smoke:
	@tmp="$$(mktemp -d)"; rc=0; \
	$(GO) run ./cmd/optchain-bench -quick -sweep smoke -reporter jsonl -cache "$$tmp" -out sweep-smoke.jsonl \
		&& $(GO) run ./cmd/optchain-bench -diff -tol-tps 0 -tol-cross 0 "$$tmp/rows.jsonl" sweep-smoke.jsonl \
		&& $(GO) run ./cmd/optchain-bench -quick -sweep table1 -reporter fidelity -out sweep-fidelity.txt \
		&& cat sweep-fidelity.txt \
		&& n="$$(grep -cE '^table1/.* [0-9.]+ +[0-9.]+ +[0-9.]+$$' sweep-fidelity.txt)" \
		&& { [ "$$n" = 4 ] || { echo "fidelity: $$n Table I claims with paper/ours/ratio, want 4"; false; }; } \
		|| rc=$$?; \
	rm -rf "$$tmp" sweep-smoke.jsonl sweep-fidelity.txt; exit $$rc

# Placement-quality gate (see PERFORMANCE.md "Quality gates"). Four checks
# in one pipeline, every row file read through DecodeRows:
#   1. the quality sweep runs cold into a fresh row cache, then again
#      resumed from that cache;
#   2. the cache file must hold exactly the cold run's cells with the same
#      metrics (a zero-tolerance -diff; the cache's header and pure cell
#      entries are the row cache's own tests);
#   3. cold vs resumed rows must match at zero tolerance — the cache must
#      reproduce execution exactly, not approximately;
#   4. the resumed rows gate against the committed BENCH_quality.jsonl
#      ledger at loose 10% tolerances. -diff (no -allow-missing) fails on a
#      cell only one side holds, so a ledger line deleted, added or
#      duplicated fails as a regression does.
# Any regression exits non-zero and fails CI.
quality-gate:
	@rc=0; \
	rm -rf qg-cache qg-cold.jsonl qg-warm.jsonl; \
	$(GO) run ./cmd/optchain-bench -quick -sweep quality -reporter jsonl -cache qg-cache -out qg-cold.jsonl \
		&& $(GO) run ./cmd/optchain-bench -quick -sweep quality -reporter jsonl -cache qg-cache -out qg-warm.jsonl \
		&& $(GO) run ./cmd/optchain-bench -diff -tol-tps 0 -tol-cross 0 qg-cold.jsonl qg-cache/rows.jsonl \
		&& $(GO) run ./cmd/optchain-bench -diff -tol-tps 0 -tol-cross 0 qg-cold.jsonl qg-warm.jsonl \
		&& $(GO) run ./cmd/optchain-bench -diff -tol-tps 0.1 -tol-cross 0.1 BENCH_quality.jsonl qg-warm.jsonl \
		|| rc=$$?; \
	rm -rf qg-cache qg-cold.jsonl qg-warm.jsonl; exit $$rc

# Per-package statement coverage with committed floors: the merged profile
# lands in cover.out (CI uploads it as an artifact) and covercheck fails
# the build when any tested package drops below COVERAGE_floors.txt — a
# ratchet against coverage rot, raised as coverage grows.
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./internal/covercheck -profile cover.out -floors COVERAGE_floors.txt

# benchmark/ is a nested module (see BENCHMARK.json) that `go build ./...`
# never sees, so an API removal in the root module can break it silently;
# vet and test it from inside (~3 s).
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# The root package is only the Engine: importers (the gateway, the
# benchmark binary) must not link the experiment harness or the testing
# and flag packages it pulls in. Nothing under ./cmd, the gateway or the
# experiment layer links testing either.
deps-check:
	@bad="$$($(GO) list -deps optchain | grep -E '^(optchain/internal/bench|optchain/experiment|testing|flag)$$')"; \
	if [ -n "$$bad" ]; then \
		echo "package optchain must not depend on:"; echo "$$bad"; exit 1; \
	fi
	@bad="$$($(GO) list -deps ./cmd/... ./serve ./experiment | grep -E '^testing$$')"; \
	if [ -n "$$bad" ]; then \
		echo "./cmd/..., ./serve and ./experiment must not depend on: testing"; exit 1; \
	fi

ci: fmt-check vet lint build test bench-smoke sweep-smoke quality-gate benchmark-check deps-check
