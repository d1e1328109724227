GO ?= go

.PHONY: build test check results-check fmt-check lint lint-report bench bench-api bench-store bench-stream bench-drift metrics-lint fuzz-smoke trace-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The race-enabled gate the parallel cone engine is held to. The
# benchmark is its own module over this one: vetting and short-testing
# it here makes an internal API change that breaks its build fail the
# check, not the benchmark run.
check: fmt-check lint
	$(GO) vet ./...
	$(GO) test -race ./...
	cd layerbench && $(GO) vet ./... && $(GO) test -short ./...

# Reproduction gate: regenerate every experiment report into a fresh
# directory and fail on any byte that differs from the committed
# results/ (about 1.5 min on two cores). A change that moves a
# reproduced number must regenerate results/ in the same commit.
results-check:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/experiments -out "$$tmp" >/dev/null && diff -r results "$$tmp"

# gofmt gate: fails listing every Go file gofmt would change. Skips
# dot-directories (.git, the layerbench build cache) and the analyzer
# fixtures under internal/lint/checks/testdata, which are lint-test
# inputs laid out to put findings on fixed lines.
GOFMT_FILES = $(shell find . -name '*.go' -not -path './.*' -not -path './internal/lint/checks/testdata/*')

fmt-check:
	@out=$$(gofmt -l $(GOFMT_FILES)); \
	if [ -n "$$out" ]; then echo "gofmt -l lists files needing formatting:"; echo "$$out"; exit 1; fi

# The repo's own analyzer suite (DESIGN.md §9): concurrency,
# determinism, observability-naming, error-wrapping, publish-freeze,
# hot-path allocation, and lock-discipline invariants. Exit 1 means
# findings; suppress individual lines with
# `//lint:ignore <analyzer> <reason>`, or use the //asrank:
# annotations the dataflow analyzers read (see DESIGN.md §9).
lint:
	$(GO) run ./cmd/asrank-lint ./...

# Same run, but leave machine-readable reports at the repo root: a
# SARIF 2.1.0 log (code-scanning upload) and the custom JSON report
# (findings plus the registered-analyzer inventory). Exit status is
# the same contract as `make lint`.
lint-report:
	$(GO) run ./cmd/asrank-lint -sarif lint.sarif -json lint.json ./...
	@echo "reports in lint.sarif and lint.json"

bench:
	$(GO) test -run xxx -bench . -benchmem .

# API read-path benchmark (DESIGN.md §13): generate a seed corpus,
# serve it with asrankd, and drive asbench's weighted request mix
# (point lookups, cone probes, pages, bulk, conditional revalidation)
# against the live server. Leaves p50/p99 latency, req/s-per-core,
# status counts, and the compact-vs-pretty byte comparison in
# BENCH_api.json at the repo root.
BENCHDIR ?= bench-api
BENCH_DURATION ?= 10s

bench-api:
	mkdir -p $(BENCHDIR)/bin
	$(GO) build -o $(BENCHDIR)/bin/ ./cmd/topogen ./cmd/bgpsim ./cmd/asrankd ./cmd/asbench
	$(BENCHDIR)/bin/topogen -ases 2000 -seed 42 -o $(BENCHDIR)/topo.txt
	$(BENCHDIR)/bin/bgpsim -topo $(BENCHDIR)/topo.txt -vps 12 -seed 42 -o $(BENCHDIR)/paths.txt
	$(BENCHDIR)/bin/asrankd -paths $(BENCHDIR)/paths.txt -listen 127.0.0.1:17908 & pid=$$!; \
	$(BENCHDIR)/bin/asbench -target http://127.0.0.1:17908 \
		-duration $(BENCH_DURATION) -seed 42 -out BENCH_api.json \
		|| { kill -INT $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid
	@echo "report in BENCH_api.json"

# Epoch-warehouse benchmark (DESIGN.md §14): infer a deterministic
# evolving series, append every epoch to a fresh store, and report the
# storage profile (one full epoch vs the delta chain, bytes/AS),
# encode/decode MB/s, history/diff query p50/p99, and the per-epoch
# round-trip ETag proof in BENCH_store.json at the repo root. The
# committed BENCH_store.json is the reference run at these defaults.
BENCH_STORE_EPOCHS ?= 12
BENCH_STORE_SCALE ?= 2000

bench-store:
	mkdir -p $(BENCHDIR)/bin
	$(GO) build -o $(BENCHDIR)/bin/ ./cmd/storebench
	$(BENCHDIR)/bin/storebench -epochs $(BENCH_STORE_EPOCHS) \
		-scale $(BENCH_STORE_SCALE) -vps 12 -seed 42 -out BENCH_store.json
	@echo "report in BENCH_store.json"

# Streaming-epoch benchmark (DESIGN.md §15): simulate a collection,
# churn it at BENCH_STREAM_CHURN per epoch, and run every epoch down
# both the incremental engine and the from-scratch batch pipeline —
# differentially checked, so the reported speedup is between paths that
# produced bit-identical snapshots. Leaves epochs/s, update-to-serve
# p50/p99, and the incremental-vs-batch speedup in BENCH_stream.json at
# the repo root; a non-zero exit means an epoch diverged. The committed
# BENCH_stream.json is the reference run at these defaults.
BENCH_STREAM_EPOCHS ?= 12
BENCH_STREAM_SCALE ?= 2000
BENCH_STREAM_CHURN ?= 0.01
# When set, streambench also writes the per-epoch commit provenance
# (the /debug/epochs shape) to this path — the CI artifact that answers
# "which phase got slower" when the drift guard fires.
BENCH_STREAM_EPOCHS_OUT ?=

bench-stream:
	mkdir -p $(BENCHDIR)/bin
	$(GO) build -o $(BENCHDIR)/bin/ ./cmd/streambench
	$(BENCHDIR)/bin/streambench -epochs $(BENCH_STREAM_EPOCHS) \
		-scale $(BENCH_STREAM_SCALE) -churn $(BENCH_STREAM_CHURN) \
		-vps 12 -seed 42 -out BENCH_stream.json \
		$(if $(BENCH_STREAM_EPOCHS_OUT),-epochs-out $(BENCH_STREAM_EPOCHS_OUT),)
	@echo "report in BENCH_stream.json"

# Benchmark drift guard: save the committed reference reports aside,
# re-run the API and streaming benchmarks at their structural defaults
# (BENCH_DURATION may shorten the API run — reqPerSec is a rate, so
# short runs stay comparable), and fail if either throughput metric
# regressed past BENCH_DRIFT_TOLERANCE. The streaming run also leaves
# the per-epoch provenance artifact in $(BENCHDIR)/stream-epochs.json.
BENCH_DRIFT_TOLERANCE ?= 0.25

bench-drift:
	mkdir -p $(BENCHDIR)
	cp BENCH_api.json $(BENCHDIR)/ref_api.json
	cp BENCH_stream.json $(BENCHDIR)/ref_stream.json
	$(MAKE) bench-api
	$(MAKE) bench-stream BENCH_STREAM_EPOCHS_OUT=$(BENCHDIR)/stream-epochs.json
	$(GO) run ./cmd/benchdrift -ref $(BENCHDIR)/ref_api.json \
		-fresh BENCH_api.json -metric reqPerSec -tolerance $(BENCH_DRIFT_TOLERANCE)
	$(GO) run ./cmd/benchdrift -ref $(BENCHDIR)/ref_stream.json \
		-fresh BENCH_stream.json -metric epochsPerSec -tolerance $(BENCH_DRIFT_TOLERANCE)

# Standalone exposition-format gate: the strict Prometheus text-format
# checks on obs itself plus the end-to-end /metrics surface.
metrics-lint:
	$(GO) test -count=1 -run 'TestExposition|TestLint' ./internal/obs
	$(GO) test -count=1 -run TestMetricsEndToEnd ./internal/apiserver

# End-to-end span-trace demo (DESIGN.md §12): simulate a seed topology,
# replay it into a live collector through chaos-injected dials, and run
# inference — each stage writing a -trace capture. Every file is
# schema-self-checked on write; drag any of them into
# https://ui.perfetto.dev (or chrome://tracing) to browse.
TRACEDIR ?= trace-demo

trace-demo:
	mkdir -p $(TRACEDIR)/bin
	$(GO) build -o $(TRACEDIR)/bin/ ./cmd/topogen ./cmd/collector ./cmd/bgpsim ./cmd/asrank
	$(TRACEDIR)/bin/topogen -ases 800 -seed 42 -o $(TRACEDIR)/topo.txt
	$(TRACEDIR)/bin/bgpsim -topo $(TRACEDIR)/topo.txt -vps 8 -seed 42 \
		-o $(TRACEDIR)/paths.txt -trace $(TRACEDIR)/bgpsim-trace.json
	$(TRACEDIR)/bin/collector -listen 127.0.0.1:17901 \
		-paths $(TRACEDIR)/collected.txt & pid=$$!; sleep 1; \
	$(TRACEDIR)/bin/bgpsim -topo $(TRACEDIR)/topo.txt -vps 8 -seed 42 \
		-replay 127.0.0.1:17901 -chaos-seed 42 -retries 16 \
		-trace $(TRACEDIR)/replay-trace.json || { kill -INT $$pid; exit 1; }; \
	kill -INT $$pid; wait $$pid
	$(TRACEDIR)/bin/asrank -paths $(TRACEDIR)/paths.txt \
		-o $(TRACEDIR)/rels.txt -trace $(TRACEDIR)/asrank-trace.json
	@echo "traces in $(TRACEDIR)/: bgpsim-trace.json replay-trace.json asrank-trace.json"

# Short native-fuzzing pass over every decoder target, seeded with the
# shared chaos-corrupted corpus. Each target gets FUZZTIME; `go test`
# allows only one -fuzz pattern per invocation, hence one line each.
FUZZTIME ?= 5s

fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzParseAttributes$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzParseUpdate$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzParseOpenBody$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzReadMessage$$' -fuzztime $(FUZZTIME) ./internal/bgp
	$(GO) test -run '^$$' -fuzz '^FuzzReader$$' -fuzztime $(FUZZTIME) ./internal/mrt
	$(GO) test -run '^$$' -fuzz '^FuzzCorpusMutator$$' -fuzztime $(FUZZTIME) ./internal/streamtest
