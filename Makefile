# Local targets mirror .github/workflows/ci.yml exactly: every CI check step
# is `make <target>`, and `make ci` runs the same targets in the same order.

GO ?= go

# The packages whose exported surface is pinned in API.txt and guarded in
# CI (make apicheck), and whose exported symbols must all carry doc
# comments (make doclint). Everything under internal/ is explicitly
# unstable.
API_PKGS = ./tinygroups ./tinygroups/scenario ./tinygroups/loadgen ./tinygroups/cluster

# The daemon/loadgen pair used by serve-smoke. Override SERVE_PORT if 8477
# is taken locally.
SERVE_PORT ?= 8477
SERVE_ADDR = 127.0.0.1:$(SERVE_PORT)

# The separate port chaos-smoke tortures its daemon on, so a concurrent
# serve-smoke run on SERVE_PORT is never collateral damage.
CHAOS_PORT ?= 8479
CHAOS_ADDR = 127.0.0.1:$(CHAOS_PORT)

# cluster-smoke's port block: the router plus its two shard daemons.
CLUSTER_PORT ?= 8480
CLUSTER_ROUTER_ADDR = 127.0.0.1:$(CLUSTER_PORT)
CLUSTER_SHARD0_ADDR = 127.0.0.1:$(shell expr $(CLUSTER_PORT) + 1)
CLUSTER_SHARD1_ADDR = 127.0.0.1:$(shell expr $(CLUSTER_PORT) + 2)

.PHONY: build test cover bench perfbench-selfcheck lint doclint api apicheck smoke-examples serve-smoke chaos-smoke cluster-smoke fuzz-short ci

build:
	$(GO) build ./...

test:
	$(GO) test -race ./...

# cover reruns the test suite with coverage accounting and prints the
# per-package and total percentages. CI uploads coverage.out as an
# artifact and surfaces the total in the job summary; there is no
# hard threshold — the number is informational, the tests are the gate.
cover:
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -1

# fuzz-short runs each snapshot/op-log decoder fuzz target briefly (the
# committed seed corpora plus a few seconds of mutation) — the CI-sized
# slice of the "decoders never panic" guarantee. Longer local runs:
# go test -fuzz FuzzDecodeSnapshot -fuzztime 5m ./internal/snapshot
fuzz-short:
	$(GO) test -fuzz FuzzDecodeSnapshot -fuzztime 5s -run '^$$' ./internal/snapshot
	$(GO) test -fuzz FuzzDecodeLog -fuzztime 5s -run '^$$' ./internal/snapshot

# bench smoke-runs every in-package benchmark once, so a benchmark that no
# longer compiles or panics fails CI. Measure with a real -benchtime and
# -benchmem (ns/op, allocs/op); end-to-end and per-layer service numbers
# come from perfbench.
bench:
	$(GO) test -run=NONE -bench=. -benchtime=1x ./...

# perfbench-selfcheck runs every perfbench workload briefly, untraced and
# traced, against a real tinygroupsd and requires each metric BENCHMARK.json
# names, so a change that breaks the service-level benchmark fails CI.
perfbench-selfcheck:
	python3 perfbench/run.py --selfcheck

lint:
	$(GO) vet ./...
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "files need gofmt:"; echo "$$out"; exit 1; \
	fi

# doclint fails when any exported symbol of the stable packages lacks a
# doc comment — the guard that keeps the godoc pass from regressing.
doclint:
	$(GO) run ./cmd/doclint $(API_PKGS)

# api regenerates the checked-in export listing of the stable packages.
# Run it (and review the diff) whenever the public surface changes.
api:
	@{ for p in $(API_PKGS); do echo "# $$p"; $(GO) doc -short "$$p"; echo; done; } > API.txt
	@echo "wrote API.txt"

# apicheck fails when the exported surface drifted from API.txt — the CI
# guard that makes every public-API change an explicit, reviewed diff.
apicheck:
	@{ for p in $(API_PKGS); do echo "# $$p"; $(GO) doc -short "$$p"; echo; done; } > API.txt.tmp; \
	if ! diff -u API.txt API.txt.tmp; then \
		rm -f API.txt.tmp; \
		echo "public API surface drifted — run 'make api' and commit the diff" >&2; exit 1; \
	fi; \
	rm -f API.txt.tmp

# smoke-examples builds and runs every example binary against the public
# API (output discarded; a non-zero exit fails the gate).
smoke-examples:
	@set -e; for d in examples/*/; do \
		echo "== $$d"; $(GO) run "./$$d" > /dev/null; \
	done

# serve-smoke gates the daemon's full lifecycle: boot, answer /healthz,
# serve real traffic from loadgen, then drain cleanly on SIGTERM (the
# daemon's exit status is the assertion — a botched drain exits non-zero).
serve-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/tinygroupsd" ./cmd/tinygroupsd; \
	$(GO) build -o "$$tmp/loadgen" ./cmd/loadgen; \
	"$$tmp/tinygroupsd" -addr $(SERVE_ADDR) -n 512 -epoch-interval 250ms & pid=$$!; \
	trap 'kill $$pid 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	"$$tmp/loadgen" -addr http://$(SERVE_ADDR) -ops 64 -concurrency 2 -keys 64 -advance-every 32 -out - > /dev/null; \
	kill -TERM $$pid; \
	wait $$pid; \
	echo "serve-smoke: clean daemon exit"

# chaos-smoke gates crash recovery: cmd/chaos boots the daemon, drives the
# three adversarial workloads, SIGKILLs it mid-epoch, restarts it, and
# requires the friendly tail to come back at >= 99% lookup success. A last,
# quiet crash (one advance, one op-log-only put, SIGKILL, restart) must
# recover the exact pre-kill epoch, fingerprint and every acknowledged key,
# followed by a clean final drain — the kill/restart drill of
# ARCHITECTURE.md's fault model. A wedged phase trips the harness watchdog, which SIGQUITs the
# daemon for a goroutine dump before failing.
chaos-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/tinygroupsd" ./cmd/tinygroupsd; \
	$(GO) build -o "$$tmp/chaos" ./cmd/chaos; \
	"$$tmp/chaos" -daemon "$$tmp/tinygroupsd" -addr $(CHAOS_ADDR) -n 512 -ops 300

# cluster-smoke gates cluster mode end to end with the real binaries: two
# shard daemons (-shard-index/-shard-count) and a tinygroupsrouter boot,
# loadgen drives a sweep — including the scatter-gathered bulk-read
# workload and coordinated two-phase epoch advances — through the router,
# and all three processes drain cleanly on SIGTERM (each exit status is an
# assertion).
cluster-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/tinygroupsd" ./cmd/tinygroupsd; \
	$(GO) build -o "$$tmp/tinygroupsrouter" ./cmd/tinygroupsrouter; \
	$(GO) build -o "$$tmp/loadgen" ./cmd/loadgen; \
	"$$tmp/tinygroupsd" -addr $(CLUSTER_SHARD0_ADDR) -n 512 -shard-index 0 -shard-count 2 & s0=$$!; \
	"$$tmp/tinygroupsd" -addr $(CLUSTER_SHARD1_ADDR) -n 512 -shard-index 1 -shard-count 2 & s1=$$!; \
	"$$tmp/tinygroupsrouter" -addr $(CLUSTER_ROUTER_ADDR) \
		-shards http://$(CLUSTER_SHARD0_ADDR),http://$(CLUSTER_SHARD1_ADDR) & rp=$$!; \
	trap 'kill $$rp $$s0 $$s1 2>/dev/null || true; rm -rf "$$tmp"' EXIT; \
	"$$tmp/loadgen" -addr http://$(CLUSTER_ROUTER_ADDR) -ops 64 -concurrency 2 -keys 64 \
		-workloads uniform,readwrite-mix,churn-heavy,bulk-read -advance-every 32 -out - > /dev/null; \
	kill -TERM $$rp $$s0 $$s1; \
	wait $$rp; wait $$s0; wait $$s1; \
	echo "cluster-smoke: clean router + 2-shard exit"

ci: build lint doclint apicheck test cover fuzz-short smoke-examples serve-smoke chaos-smoke cluster-smoke bench perfbench-selfcheck
