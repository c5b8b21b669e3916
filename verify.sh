#!/bin/sh
# verify.sh: the repo's tier-1 check. Everything here must pass before a
# change lands: formatting, vet, a clean build, the full test suite under
# the race detector (the fleet simulator and streaming estimator are
# concurrent), and the linter over the example corpus (clean.mc must stay
# clean; the demo programs only carry warnings, so ctlint exits 0 on all
# of them).
set -eu
cd "$(dirname "$0")"

echo "== gofmt"
badfmt=$(gofmt -l .)
if [ -n "$badfmt" ]; then
	echo "gofmt needed on:" >&2
	echo "$badfmt" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== CLI contract (built binaries)"
# main's os.Exit(run(...)) wiring, which the in-process tests never reach:
# every command exits 0 on -h and 2 on a bad value of a shared flag.
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
go build -o "$bindir" ./cmd/...
for check in "ctomo -tick 0" "ctfleet -tick 0" "ctstationd -tick 0" "motesim -tick 0" \
	"ctbench -tick 0" "minicc -instrument x" "ctlint -max-cycles -1"; do
	set -- $check
	cmd=$1
	shift
	"$bindir/$cmd" -h 2>/dev/null || { echo "$cmd -h: exit $?, want 0" >&2; exit 1; }
	code=0
	"$bindir/$cmd" "$@" f.mc 2>/dev/null || code=$?
	[ "$code" = 2 ] || { echo "$cmd $*: exit $code, want 2" >&2; exit 1; }
done

echo "== go test -race"
go test -race ./...

echo "== perfbench self-test"
# perfbench is its own module, so the root build, vet and tests above never
# see it. Its self-test requires codetomo.Run to match perfbench's
# stage-by-stage replica bit for bit and compiles against the library API
# the benchmark uses, so a change to Run's behaviour or to that API fails
# here rather than in the benchmark run. It takes about a second.
(cd perfbench && go vet ./... && go test -count=1 ./...)

echo "== perf baseline (counters, line counts, allocations per op)"
# Runs every perfbench workload for about a second at seed 1, untraced and
# traced, and compares the timing-free fields with BENCH_BASELINE.json:
# the work counters, loc.* and speedup_geomean, accuracy_mean and
# trusted_procs must match exactly, alloc_kb_per_op may move by a tenth of
# its value, and the timings are printed, not gated. A change that moves
# one of them on purpose reruns these commands and adds -update to the
# go test line. It takes about fifteen seconds once perfbench is built.
benchdir=$(mktemp -d)
trap 'rm -rf "$bindir" "$benchdir"' EXIT
for w in pipeline_apps fleet_10k station_push; do
	for tr in 0 1; do
		sh perfbench/run.sh --workload "$w" --seed 1 --seconds 1 --trace "$tr" >"$benchdir/$w-trace$tr.out"
	done
done
CODETOMO_BENCH_DIR="$benchdir" go test . -run '^TestBenchBaseline$' -count=1 -v

echo "== fuzz smoke (MiniC front end)"
# Random MiniC source: the parser and checker must reject cleanly, never
# panic, and every program the checker accepts must survive the IR
# verifier after each pass of the most aggressive build.
go test ./internal/minic -run=NONE -fuzz=FuzzParse -fuzztime=5s

echo "== fuzz smoke (packet decoder)"
go test ./internal/trace -run=NONE -fuzz=FuzzPacketDecode -fuzztime=5s

echo "== fuzz smoke (trace readers)"
# Random bytes at the trace-file decoder: it must reject cleanly without
# allocating for records the input does not hold, and round-trip whatever
# it accepts. Random event logs at Extract: it must agree with the
# standalone pairer it replaced (same intervals or same rejection) on
# every log except one whose clock runs backwards, which it rejects.
go test ./internal/trace -run=NONE -fuzz=FuzzReadEvents -fuzztime=5s
go test ./internal/trace -run=NONE -fuzz=FuzzExtract -fuzztime=5s

echo "== fuzz smoke (station WAL recovery)"
# Random bytes as the station's write-ahead log: recovery must keep
# exactly the intact, re-framable prefix and be idempotent on it.
go test ./internal/station -run=NONE -fuzz=FuzzWALRecover -fuzztime=5s

echo "== fuzz smoke (CRC-16)"
# The sliced CRC-16 that guards radio frames and checkpoint images must
# agree with the bitwise reference on any input.
go test ./internal/mote -run=NONE -fuzz=FuzzCRC16 -fuzztime=5s

echo "== fuzz smoke (path-time index)"
# The radix-sorted path-time index must order any times exactly as the
# comparator sort it replaced: cmp.Compare, then path index, with NaN,
# -0 and ties included.
go test ./internal/markov -run=NONE -fuzz=FuzzSortedTimes -fuzztime=5s

echo "== fuzz smoke (sample histograms)"
# Random tick batches: merging their histograms must equal counting the
# concatenation; EM, Robust and Moments over the counts must equal their
# raw-sample references (a shuffled order, the raw-order robust pass,
# Welford over the ascending samples) bit for bit; and a stream fed the
# batches must equal every estimator's Fit over the running merge,
# warm-started each round.
go test ./internal/tomography -run=NONE -fuzz=FuzzSampleCounts -fuzztime=5s

echo "== fuzz smoke (RNG source)"
# The lazily seeded RNG source must draw exactly math/rand's stream for any
# seed, draw count and mid-stream reseed.
go test ./internal/stats -run=NONE -fuzz=FuzzSource -fuzztime=5s

echo "== fuzz smoke (interpreter cores)"
# Differential fuzzing of the block core against the reference Step core:
# any state divergence on a random program is a crash. The seeds run every
# fused kind (copy, const, binop, expr, copy-expr, their load-and-branch
# and copy tails, load-and-branch, load-and-out, const-and-out, the call
# entry and its traced form, the return and its traced and load-then-traced
# forms, and a threaded call) faulting at each sub-instruction, every
# operator of the fused ALU switch (the swapped compare too), and a fault
# and a budget stop right after a threaded jump.
go test ./internal/mote -run=NONE -fuzz=FuzzFastCore -fuzztime=5s

echo "== fuzz smoke (static bounds)"
# Random programs: measured cycles and stack depth must never exceed the
# static WCET/stack bounds, with and without dead-branch elimination.
go test ./internal/compile -run=NONE -fuzz=FuzzStaticBounds -fuzztime=5s

echo "== fuzz smoke (PGO passes)"
# Differential fuzzing of the profile-guided pipeline: random programs,
# random weights, and random pass combinations must preserve semantics
# bit-for-bit against a plain build under flash-page penalties.
go test ./internal/compile -run=NONE -fuzz=FuzzPGOPasses -fuzztime=5s

echo "== fuzz smoke (checkpoint codec)"
# Random bytes at the checkpoint decoder: corrupt or truncated images must
# be rejected cleanly, and every accepted image must re-encode to an
# equivalent checkpoint.
go test ./internal/mote -run=NONE -fuzz=FuzzCheckpointDecode -fuzztime=5s

echo "== staticcheck"
# Pinned in CI images that carry it; skipped offline (no network installs).
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck not installed; skipping"
fi

echo "== bench smoke (estimation kernel, interpreter cores, CRC, RNG, packet codec, station, fleet, energy, compile, layout, Run on crc)"
# One iteration of every benchmark: keeps the bench code compiling and
# running without paying for stable timings. -benchmem so the fleet
# pipeline's bytes-per-mote stays visible in the smoke output.
go test ./internal/tomography ./internal/markov ./internal/mote ./internal/stats ./internal/trace ./internal/station ./internal/fleet ./internal/fault ./internal/compile ./internal/layout -run='^$' -bench=. -benchtime=1x -benchmem
# Run end to end on crc at the benchmark's pipeline_apps configuration.
go test . -run '^$' -bench '^BenchmarkRunCRC$' -benchtime=1x -benchmem

echo "== golden tables, fleet scale, fleet and model allocations, export uses and dispatch census (non-race)"
# These gates skip or are not built under -race, so they run here.
# TestCtbenchGolden reruns every ctbench experiment at 400 samples and
# requires the paper tables, host-time columns masked, to match
# internal/bench/testdata/ctbench.golden cell for cell.
# TestSimulateStreamScale streams a hundred thousand motes through the
# cohort pipeline, requiring exact invocation recovery and a bounded peak
# heap, so the fleet is never materialized. TestRunFleetAllocsPerMote
# bounds RunFleet's allocated bytes per mote at the benchmark's fleet
# configuration, so samples are never copied per mote again.
# TestModelBytesPerArc bounds the bytes NewModelOpts allocates per arc of
# crc's path-capped handler model, so a path is never stored twice again.
# TestExportsHaveCallers type-checks the module and perfbench with their
# tests and fails on an exported name that nothing but its own package's
# tests uses, outside its allowlist. TestDispatchCensus steps compiled crc
# and sense and fails when the block core's instructions per dispatch fall
# below their floors, so a lost fusion or jump thread shows before the
# benchmark does.
go test . ./internal/bench ./internal/fleet ./internal/tomography ./internal/mote -run '^(TestCtbenchGolden|TestSimulateStreamScale|TestRunFleetAllocsPerMote|TestModelBytesPerArc|TestExportsHaveCallers|TestDispatchCensus)$' -count=1

echo "== station smoke (daemon boot, loopback push, HTTP, clean shutdown, ingest/cut/close race)"
# Boots ctstationd in-process on ephemeral loopback ports, pushes one
# simulated fleet round over the ARQ'd TCP ingest, asserts /healthz and a
# non-empty /v1/models, and verifies the SIGTERM drain path exits 0. Then
# races four ingest goroutines, automatic and explicit epoch cuts, and
# Close on the receive window twenty times under the race detector, so a
# lost frame, a cut after Close or a lock-order regression fails here
# every time rather than once in a while.
go test ./cmd/ctstationd -run='^TestStationSmoke$' -count=1
go test -race -run '^TestConcurrentIngestAndClose$' -count=20 ./internal/station

echo "== fleet scheduler race (Pool.Each, cohort engine)"
# Runs the pool and the cohort engine five times under the race detector:
# two Each calls sharing one pool, workers and GOMAXPROCS swept over a
# thousand motes, a mote failure that must stop later cohorts, and one
# worker reusing its machine across cohort boundaries, so a race in the
# scheduler or in per-worker scratch fails here rather than once in a
# while. It takes about ten seconds.
go test -race -short -count=5 -run '^(TestPoolEach|TestStreamDeterminismAtScale|TestStreamErrors|TestStreamMatchesMaterialized)$' ./internal/fleet

echo "== cross-caller agreement on one P (Run, RunFleet, bench, station)"
# Reruns the tests that feed one deployment to every caller of the
# estimation core with GOMAXPROCS=1, so the pool's fan-out runs one
# procedure at a time: Run, the bench, RunFleet and the station must still
# reach the same trust decision for the same reason, outcomes must come
# back in CFG order with their index and stream and must not depend on the
# order the samples were measured in, and streaming estimates must not
# depend on the pool size. A caller that closes the chain its own
# way, or an outcome that depends on the schedule, fails here. It takes
# about two seconds.
GOMAXPROCS=1 go test . ./internal/station ./internal/pipeline -run '^(TestCallersAgree|TestStationDecisionMatchesBench|TestBatchOutcomesInCFGOrder|TestBatchOrderInvariant|TestEstimateStreams)$' -count=1

echo "== ctlint examples"
go run ./cmd/ctlint examples/minic/*.mc

echo "verify.sh: all checks passed"
