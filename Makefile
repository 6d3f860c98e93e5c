# Verify loop for the dima module. `make check` is the full gate run
# before every commit: build, vet, the complete test suite, the
# internal packages under the race detector, where the tests run the
# shard engine with several worker goroutines, one iteration of every
# micro-benchmark, and the benchmark module's vet and tests, which
# compile against core.Options.

GO ?= go

.PHONY: all build test race vet fmt fmt-check loc fuzz-smoke bench bench-smoke bench-check profile check serve-smoke dynamic-smoke load-smoke cluster-smoke cluster-serve-smoke

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/...

vet:
	$(GO) vet ./...

fmt:
	gofmt -w .

# Fails (and lists the offenders) when any file is not gofmt-clean.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# Production Go lines (every non-test file of the build) per package of
# the root module, then the total: the count the ROADMAP's line targets
# are stated in. bench/ is a module of its own and is not counted.
loc:
	@$(GO) list -f '{{.ImportPath}}{{range .GoFiles}} {{$$.Dir}}/{{.}}{{end}}' ./... | \
		awk 'NF > 1 { n = 0; for (i = 2; i <= NF; i++) { while ((getline l < $$i) > 0) n++; close($$i) } \
			printf "%7d %s\n", n, $$1; t += n } END { printf "%7d total\n", t }'

# `go test` replays only the seed corpora. This runs every fuzz target
# in the module for 5 s of new inputs each, one at a time, since -fuzz
# takes one target per package.
fuzz-smoke:
	@set -e; for pkg in $$($(GO) list ./...); do \
		for fn in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz-smoke: $$pkg $$fn"; \
			$(GO) test -run='^$$' -fuzz="^$$fn$$" -fuzztime=5s $$pkg; \
		done; \
	done

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# One iteration of every Go benchmark in the module: `go test` and
# `go vet` only compile the benchmarks, and this keeps them running.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# One CPU profile per coloring algorithm, each of its one-worker
# RunShard benchmark (ER, n = 2,000, average degree 8) at GOMAXPROCS=1,
# and the top 20 functions of each by flat time. The profiles stay in
# .profile (cpu-Edges.out, cpu-Strong.out) for `go tool pprof`.
profile:
	@mkdir -p .profile
	@set -e; for alg in Edges Strong; do \
		GOMAXPROCS=1 $(GO) test -run '^$$' -bench "^BenchmarkColor$${alg}Shard$$" -benchtime 4s \
			-o .profile/core.test -cpuprofile .profile/cpu-$$alg.out ./internal/core; \
		$(GO) tool pprof -top -nodecount 20 .profile/core.test .profile/cpu-$$alg.out; \
	done

# The benchmark harness is a module of its own (bench/go.mod), so the
# root `go test ./...` never builds it. Its tests include the Step-shim
# corpus gate, which checks that the outboxes nodes return replay into
# exactly the inboxes Step received.
bench-check:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# End-to-end smoke of the dimaserve binary over curl: submit, poll to
# done, cancel a large job mid-run, drain on SIGTERM (docs/SERVING.md).
serve-smoke:
	sh scripts/serve_smoke.sh

# End-to-end smoke of dynamic recoloring over the wire: stream 100
# mutation batches through POST /jobs/{id}/mutate and assert every
# post-batch coloring re-verifies valid (docs/DYNAMIC.md).
dynamic-smoke:
	sh scripts/dynamic_smoke.sh

# SLO smoke: boot dimaserve, run a 10-second dimaload burst, assert
# zero error-budget violations and a non-empty Prometheus scrape
# (docs/OBSERVABILITY.md). Writes BENCH_PR6.json.
load-smoke:
	sh scripts/load_smoke.sh

# Multi-process tcp engine smoke: a coordinator plus 4 node processes
# over loopback color a ~10^5-edge graph, outputs diffed byte-for-byte
# against the sync reference for both algorithms, plus an
# operator-launched dimanode arm (docs/CLUSTER.md).
cluster-smoke:
	sh scripts/cluster_smoke.sh

# Cluster serving smoke: a dimaserve front end plus three dimaworker
# processes; a known graph re-verified with dimaverify, a SIGKILL
# failover arm, a dimaload burst that loses a second worker mid-run,
# and a drain after which the survivors exit 0 on their own
# (docs/CLUSTER_SERVE.md). Honors CLUSTER_SERVE_SMOKE_LOGDIR and
# CLUSTER_SERVE_SMOKE_OUT.
cluster-serve-smoke:
	sh scripts/cluster_serve_smoke.sh

check: build vet fmt-check test race bench-smoke bench-check
