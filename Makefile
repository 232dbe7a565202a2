# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet lint staticcheck test race check cover bench bench-disabled bench-wirepath bench-e2e bench-e2e-compare flightdump statedump figures figures-check fuzz examples loadtest clean

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific analyzers: two single-function checks (clock injection,
# goroutine shutdown wiring) plus two interprocedural ones built on the
# whole-module call graph (hotalloc; lockflow, the shard lock order with
# nothing blocking under a shard mutex).
# Stale //lint:allow comments are findings too. See DESIGN.md §8/§13;
# suppress a finding with `//lint:allow <analyzer> — reason`.
lint:
	$(GO) run ./cmd/leasevet ./...

# Pinned staticcheck. `go run pkg@version` needs the module cache or
# network to resolve the tool, so hermetic environments skip with a notice
# instead of failing the gate — but when the tool IS resolvable, its
# findings do fail the build.
STATICCHECK_VERSION ?= 2024.1.1
STATICCHECK := $(GO) run honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
staticcheck:
	@if $(STATICCHECK) -version >/dev/null 2>&1; then \
		$(STATICCHECK) ./... ; \
	else \
		echo "staticcheck $(STATICCHECK_VERSION) unavailable (offline?); skipping"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The full gate: compile, static checks, tests, and the race detector.
check: build vet lint staticcheck test race

cover:
	$(GO) test -cover ./internal/...

# Regenerates every table and figure of the paper: the TSVs land in results/
# and the printed summary is teed to results/figures_full.txt.
figures:
	@st=$$(mktemp); \
	{ $(GO) run ./cmd/figures -all -scale full -out results; echo $$? > $$st; } | tee results/figures_full.txt; \
	s=$$(cat $$st); rm -f $$st; exit $$s

# "The figures did not move", as one command: regenerates all six files of
# results/ in a scratch directory (running there with -out results, so the
# summary's "-> results/figN.tsv" lines match) and fails unless each is
# byte-identical to the committed one. About 2 minutes on 2 vCPUs; CI's
# figures job runs it.
FIGURE_FILES = fig5.tsv fig6.tsv fig7.tsv fig8.tsv fig9.tsv figures_full.txt
figures-check:
	@dir=$$(mktemp -d); trap 'rm -rf $$dir' EXIT; \
	$(GO) build -o $$dir/figures ./cmd/figures || exit 1; \
	(cd $$dir && ./figures -all -scale full -out results > summary.txt) || exit 1; \
	mv $$dir/summary.txt $$dir/results/figures_full.txt; \
	for f in $(FIGURE_FILES); do cmp results/$$f $$dir/results/$$f || exit 1; done; \
	echo "figures-check: all of results/ reproduced byte for byte"

bench:
	$(GO) test -bench=. -benchmem ./...

# The end-to-end benchmark (benchmark/README.md): real server, proxy and
# clients over loopback TCP, four workloads, untraced then traced.
# bench-e2e-compare gates a run against the committed baseline with the
# bounds in BENCHMARK.json (exit 2 beyond a bound); it is the repo's only
# timing gate.
E2E_OUT ?= benchmark/out/e2e.json
bench-e2e:
	$(GO) run ./benchmark -seed 1 -out $(E2E_OUT)

bench-e2e-compare:
	$(GO) run ./benchmark -compare benchmark/results/baseline.json $(E2E_OUT)

# Gate: the batched wire path must stay allocation-free end to end — the
# pooled append-encoders (BenchmarkWirePath/append), the full
# send-to-delivery loop for grant/renew/invalidate from one sender and from
# GOMAXPROCS senders (BenchmarkBatchedSend, BenchmarkBatchedSendParallel) and
# the enabled cost-accounting charge every frame pays at the tap
# (BenchmarkCostRecord, BenchmarkCostRecordVolume, BenchmarkCostConnFrame) all
# report 0 B/op, 0 allocs/op — and so must the read that never reaches it: a
# valid-lease hit on a real client (BenchmarkReadHit) returns the cache's own
# slice. The parallel rows are held on allocs/op only: their pool traffic
# reports 1 B/op about one run in six. A lease miss on the same client
# (BenchmarkReadMiss) boxes its request and reply, so its row is held at
# READ_MISS_ALLOCS allocs/op, the count TestReadMissAllocs pins; the two
# change together. A client's write over the same network to an object with
# one lease holder (BenchmarkWireWrite: WriteReq, the server's write state,
# Invalidate, ack, WriteReply) is held at WIRE_WRITE_ALLOCS allocs/op, its
# measured count; a change that allocates less on the write path lowers it.
# The wire-path half is also pinned
# statically: `make lint`'s hotalloc analyzer checks every function reachable
# from the //lint:hotpath roots, including paths the benchmark inputs don't
# drive (DESIGN.md §13.3).
# Each package gets its own invocation with an anchored name per `/` level
# (`-bench` splits its pattern on `/`). The gate fails unless all nine named
# groups printed at least one row, so a renamed benchmark or a pattern that
# matches nothing cannot pass it. Each row over its bound is named on stderr,
# with the offending column and its bound:
# `bench-wirepath: FAIL BenchmarkReadHit-2: 1 allocs/op, want 0`.
READ_MISS_ALLOCS := 2
WIRE_WRITE_ALLOCS := 15
bench-wirepath:
	@echo "bench-wirepath: dynamic half of the zero-alloc gate (static half: hotalloc in 'make lint')"
	{ $(GO) test -run '^$$' -bench '^BenchmarkWirePath$$/^append$$' -benchmem -benchtime=0.2s ./internal/wire && \
	  $(GO) test -run '^$$' -bench '^BenchmarkBatchedSend(Parallel)?$$' -benchmem -benchtime=0.2s ./internal/transport && \
	  $(GO) test -run '^$$' -bench '^BenchmarkCost(Record|RecordVolume|ConnFrame)$$' -benchmem -benchtime=0.2s ./internal/cost && \
	  $(GO) test -run '^$$' -bench '^BenchmarkRead(Hit|Miss)$$' -benchmem -benchtime=0.2s ./internal/client && \
	  $(GO) test -run '^$$' -bench '^BenchmarkWireWrite$$' -benchmem -benchtime=0.2s ./internal/server; } | tee /dev/stderr | \
		awk -v miss=$(READ_MISS_ALLOCS) -v write=$(WIRE_WRITE_ALLOCS) 'function fail(what, want) { bad = 1; \
				print "bench-wirepath: FAIL " $$1 ": " what ", want " want > "/dev/stderr" } \
			match($$1, /^Benchmark(WirePath\/append|BatchedSend(Parallel)?|Cost(Record(Volume)?|ConnFrame)|Read(Hit|Miss)|WireWrite)/) { \
				seen[substr($$1, RSTART, RLENGTH)] = 1; \
				if ($$1 ~ /ReadMiss/) { if ($$(NF-1) > miss) fail($$(NF-1) " allocs/op", "at most " miss) } \
				else if ($$1 ~ /WireWrite/) { if ($$(NF-1) > write) fail($$(NF-1) " allocs/op", "at most " write) } \
				else { if ($$(NF-1) != 0) fail($$(NF-1) " allocs/op", 0); \
					if ($$(NF-3) != 0 && $$1 !~ /Parallel/) fail($$(NF-3) " B/op", 0) } } \
			END { for (k in seen) n++; \
				if (n != 9) print "bench-wirepath: " n + 0 " of 9 benchmark groups printed a row" > "/dev/stderr"; \
				exit bad || n != 9 }'

# Gate: the instrumented hot paths must stay allocation-free when tracing
# is disabled (BenchmarkEmitDisabled, which includes an event carrying a
# traced write's causal ids / BenchmarkCostDisabled / BenchmarkStateDisabled
# report 0 B/op), and so must a connection with no tap attached
# (BenchmarkTapDisabled).
bench-disabled:
	$(GO) test -run '^$$' -bench '^Benchmark(Emit|Cost|State|Tap)Disabled$$' -benchmem ./internal/obs ./internal/cost ./internal/state ./internal/transport | tee /dev/stderr | \
		awk '/^Benchmark.*Disabled/ { n++; if ($$(NF-1) != 0 || $$(NF-3) != 0) bad = 1 } END { exit bad || n < 4 }'

# Smoke test for the flight dump: run the chaos scenario (partition a client
# mid-write), freeze the node's event ring, load and lease table, and leave
# the dump in $(FLIGHTDUMP_DIR) for inspection, exactly as a failed CI run
# would. See DESIGN.md §9 for the dump format.
FLIGHTDUMP_DIR ?= flight-dumps
flightdump:
	FLIGHT_DUMP_DIR=$(abspath $(FLIGHTDUMP_DIR)) $(GO) test -count=1 -run TestChaosPartitionLeavesFlightDump -v ./internal/health
	@ls -l $(FLIGHTDUMP_DIR)/flight-*.json

# Smoke test for lease-state introspection: drive leasemon's -leases and
# -diff modes against a live server and two clients, including the
# injected holder-mismatch that must exit 2. See DESIGN.md §12.
statedump:
	$(GO) test -count=1 -run TestStateDumpSmoke -v ./cmd/leasemon

fuzz:
	$(GO) test ./internal/wire -run Fuzz -fuzz=FuzzDecode -fuzztime=30s

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/newsfeed
	$(GO) run ./examples/disconnect
	$(GO) run ./examples/multiserver
	$(GO) run ./examples/hierarchy
	$(GO) run ./examples/webcache

# Live smoke test in two legs against one leased over loopback TCP:
# leasebench drives leased directly for five seconds, then drives a
# leaseproxy in front of it for five more (-startup-fence 0s: the default
# fence would hold every upstream ack for the whole leg). Each leg's verdict
# is leasebench's history check (internal/history): it records every read and
# write its clients make and exits non-zero on a stale or invented read, and
# on a failed leg leasemon -freeze leaves the flight dump of each daemon the
# leg ran through (leased; leaseproxy too on the proxied leg) in
# $(LOADTEST_DIR)/flight-dumps. Both daemons serve their debug endpoints on a
# free port, read from their `debug server on` log lines. After the direct
# leg leasemon evaluates its rule table over leased's /metrics and must exit
# 0. Between the legs the first leg's volume leases (-volume-lease 2s)
# lapse, so the proxy's first writes do not wait out clients that are gone.
# Both daemons are stopped with SIGINT.
# The target fails on a leasebench, leasemon or daemon error. Each daemon
# picks free ports and logs them.
LOADTEST_DIR ?= loadtest-out
loadtest:
	@mkdir -p $(LOADTEST_DIR)
	$(GO) build -o $(LOADTEST_DIR)/ ./cmd/leased ./cmd/leaseproxy ./cmd/leasebench ./cmd/leasemon
	@dir=$(LOADTEST_DIR); log=$$dir/leased.log; plog=$$dir/leaseproxy.log; ppid=; \
	$$dir/leased -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -volume bench -objects 64 -volume-lease 2s -stats 0 \
		2>$$log & pid=$$!; \
	trap 'kill $$pid $$ppid 2>/dev/null' EXIT; \
	addr=; n=0; while [ -z "$$addr" ] && [ $$n -lt 100 ] && kill -0 $$pid 2>/dev/null; do \
		sleep 0.1; n=$$((n+1)); addr=$$(sed -n 's/.*leased: serving volume .* on //p' $$log); done; \
	if [ -z "$$addr" ]; then cat $$log >&2; echo "loadtest: leased did not start" >&2; exit 1; fi; \
	daddr=$$(sed -n 's|.*leased: debug server on http://\([^ ]*\) .*|\1|p' $$log); \
	$$dir/leasebench -addr $$addr -clients 32 -duration 5s -write-ratio 0.05; bench=$$?; \
	[ $$bench -eq 0 ] || FLIGHT_DUMP_DIR=$$dir/flight-dumps $$dir/leasemon -freeze $$daddr; \
	$$dir/leasemon $$daddr; mon=$$?; sleep 1; \
	$$dir/leaseproxy -addr 127.0.0.1:0 -debug-addr 127.0.0.1:0 -upstream $$addr -volume bench -startup-fence 0s -stats 0 \
		2>$$plog & ppid=$$!; \
	paddr=; n=0; while [ -z "$$paddr" ] && [ $$n -lt 100 ] && kill -0 $$ppid 2>/dev/null; do \
		sleep 0.1; n=$$((n+1)); paddr=$$(sed -n 's/.*leaseproxy: serving volume .* on \([^ ]*\) (upstream.*/\1/p' $$plog); done; \
	if [ -z "$$paddr" ]; then cat $$plog >&2; echo "loadtest: leaseproxy did not start" >&2; exit 1; fi; \
	pdaddr=$$(sed -n 's|.*leaseproxy: debug server on http://\([^ ]*\) .*|\1|p' $$plog); \
	$$dir/leasebench -addr $$paddr -clients 16 -duration 5s -write-ratio 0.05; pbench=$$?; \
	[ $$pbench -eq 0 ] || FLIGHT_DUMP_DIR=$$dir/flight-dumps $$dir/leasemon -freeze $$daddr $$pdaddr; \
	kill -INT $$ppid; wait $$ppid; proxy=$$?; cat $$plog; \
	kill -INT $$pid; wait $$pid; leased=$$?; cat $$log; \
	echo "loadtest: leasebench exit $$bench, leasemon exit $$mon, proxied leasebench exit $$pbench, leaseproxy exit $$proxy, leased exit $$leased"; \
	[ $$bench -eq 0 ] && [ $$mon -eq 0 ] && [ $$pbench -eq 0 ] && [ $$proxy -eq 0 ] && [ $$leased -eq 0 ]

# Removes what building, testing and benchmarking leave behind; results/ is
# tracked (the paper's figures) and stays.
clean:
	rm -rf benchmark/out flight-dumps loadtest-out test_output.txt bench_output.txt
	find . -path ./.git -prune -o \( -name '*.test' -o -name '*.pprof' \) -type f -exec rm -f {} +
