# Developer entry points. The benchmark trajectory ($(BASELINE)) is
# machine-readable output of `make bench`; CI gates allocs/op against it
# with a ±20% tolerance (time gates only make sense on one machine —
# see PERFORMANCE.md "Keeping it fast"). Earlier baselines (BENCH_5.json)
# stay committed as the trajectory's history.

# BASELINE is the committed benchmark trajectory file that bench
# refreshes and bench-check gates against.
BASELINE := BENCH_6.json

# The benchmark set tracked in $(BASELINE): the end-to-end run, the
# micro-benchmarks of every hot-loop structure, and the gang-vs-
# independent sweep throughput comparison (PERFORMANCE.md "Pass 3").
BENCHES := BenchmarkEndToEnd$$|BenchmarkSRAMCache$$|BenchmarkTagBuffer$$|BenchmarkBansheeAccess$$|BenchmarkDRAMAccess$$|BenchmarkTraceGen$$|BenchmarkGangSweep$$

# Stamped into captured BENCH files so a committed baseline records the
# commit that produced it ("unknown" outside a git checkout).
GIT_SHA := $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)

.PHONY: test bench bench-check

test:
	go build ./... && go test ./...

# bench refreshes $(BASELINE) in place. Commit the result when a perf
# change is deliberate; the diff is the perf review. The go test output
# lands in a temp file first so a mid-suite failure fails the target
# instead of silently writing a partial baseline (sh has no pipefail).
bench:
	go test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime 1s -count 1 . > /tmp/bench_run.txt
	go run ./cmd/benchjson -sha $(GIT_SHA) < /tmp/bench_run.txt > /tmp/bench_new.json
	mv /tmp/bench_new.json $(BASELINE)
	@cat $(BASELINE)

# bench-check runs the same suite (same benchtime, so warmup
# allocations amortize identically) and fails if allocs/op drifted more
# than 20% from the committed baseline (allocation counts are
# deterministic, so this is meaningful on any hardware).
bench-check:
	go test -run '^$$' -bench '$(BENCHES)' -benchmem -benchtime 1s -count 1 . > /tmp/bench_check.txt
	go run ./cmd/benchjson < /tmp/bench_check.txt > /tmp/bench_now.json
	go run ./cmd/benchjson -diff -tol 0.2 -metric allocs $(BASELINE) /tmp/bench_now.json
