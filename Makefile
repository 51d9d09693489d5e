# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race cover bench lint lint-json check bench-rtec bench-gp bench-recovery bench-e2e bench-checkpoint fuzz-short loc figures clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

race:
	$(GO) test -race ./...

cover:
	$(GO) test -cover ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# The repo's own analyzer suite (cmd/insightlint): determinism,
# goroutine-leak, hot-path allocation, float-equality and lock/alias
# rules over every package. Exits nonzero on any finding; suppress a
# deliberate violation at the site with `//lint:allow rule reason`.
lint:
	$(GO) run ./cmd/insightlint

# Same suite, findings as a machine-readable JSON document on stdout.
lint-json:
	$(GO) run ./cmd/insightlint -json

# CI gate: vet everything, run the repo's own analyzer suite (its
# batch-path rule covers the one admission routine, the monitoring
# processor's boundary step and the sharded tier's fold loops of the
# root package and the recorded-stream
# converter of package dublin; snapshotdrift holds every tier field,
# the tier-owned busCongestion inertia included, to the snapshot/restore
# path), run the full module under the race detector (engine, rule sets,
# the partial-fluent fold property, streams supervision/shutdown, batch
# chaos tests, the parallel grid search and per-vertex variance solves, the
# 10× street graph's flow map held to its normal equations and to
# under 1 MB of heap —
# including the one-loop gates: Run ≡ the per-event reference by full
# fingerprint on both tiers with crowd rounds on, boundaries due together
# (a recording that ends early, a dead mediator) each finished before the
# next with their verdicts fed back, the report callback seeing exactly
# its boundary, cancellation reaching a crowd round, every way out of a
# run returning the transport buffers, cursor admission ≡ the per-event
# reference with drops, duplicates, re-ordered and late delivery,
# boundary-equal stamps and streams degraded mid-batch, an envelope with
# decreasing arrivals dead-lettered at the validator, live ≡ replayed ≡
# CSV round trip — and the crash-equivalence campaign: 20+
# WAL kills, torn/corrupt/fsync-crashed checkpoints and a torn log tail
# in one run, recovered output bit-identical to the uninterrupted run),
# re-run the crash gate and the mid-block-cursor checkpoint round trip
# race-free so their assertions are exercised under both schedulers,
# re-run the scored-figures gate race-free (cmd/figures: every number
# the Figure 5/6 and extension tables score — veracity precision/recall/
# F1 against the generator's ground truth, the Figure 2 ablation's lost
# SDEs and scats F1, worker-selection accuracy, the chaos profiles
# against their fault-free run — equal to testdata/scores.json, a drop
# in a quality score named as a regression), gate the block ingest path
# and the recognition path (allocations per derived event or busCongestion point of the bus ×
# intersection rules) against their committed allocation budgets, the
# column store against the committed resident bytes/event advantage
# over the row store (the named reference) and the checkpoint file
# against its bytes-per-stored-input-SDE budget, its pending records
# carrying only the dictionary entries their rows use (the race detector
# inflates allocation counts, so those gates run in a separate non-race
# pass; gp's PredictAll and MeanAll are held to a constant number of
# slices there too — the dense mean is a gather and one product, the
# sparse one a CG solve over the street graph whose allocations do not
# grow with it — and VarianceAll to a constant number per worker,
# nothing per vertex's solve; rtec's FoldTransitions to a constant number of objects
# per call whatever the number of fluent instances),
# re-run the shard gates race-free (the N ∈ {1,2,4,8} ×
# both-store grid under chaos — CE sets, events, every fluent's
# intervals and the derived/period counts against the single engine —
# the mid-run rebalance determinism tests, the tier snapshot round-trip,
# the tier's elapsed-time accounting, the no-load-counts-while-
# rebalancing-is-off bound and the scripted cross-shard Fresh dedup
# cases — a late second shard's duplicate, a migrated bus's
# re-derivation; the race pass above already exercises them under the
# race scheduler), and finish with a short
# fuzz pass over the one dense factorization/solve (ErrNotSPD or a
# backward-stable residual), GP-fit ("error or all-finite estimates"),
# GP sparse-vs-dense maps (MeanAll and VarianceAll equal the dense
# kernel's Fit + Predict within 1e-9 of each map, or all refuse),
# WAL-decode, WAL range-encode (EncodeBatchRows equals EncodeBatch of a
# fresh copy of the rows, byte for byte), store block-merge, simple-fluent
# fold (FoldTransitions equals a per-time-point holdsFor interpreter,
# whatever the points' split into parts, order and duplicates), Fresh
# dedup snapshot (seenSet.Entries equals a comparison sort of every
# identity, through Add, Prune and Restore), shard-assignment,
# engine-snapshot-decode, checkpoint-decode (format 3 seed corpus),
# close/4 spatial-index, replay-CSV (readers never panic, what they
# return batches to valid arrival-ordered envelopes or is refused),
# ground-truth field (the indexed CongestionAt equals a linear scan over
# every congestion center bit for bit, IsCongested agrees at the truth
# threshold, at box and cell edges, poles, the antimeridian and
# non-finite points) and XML flow-definition (LoadXML refuses or builds,
# never panics, never sizes a queue past its bound) targets. The
# generated stream itself is pinned by digest in the plain test pass
# (dublin's TestGeneratedStreamPinned).
check: lint
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test -run 'TestCrashEquivalence|TestCheckpointMidBlockCursors' -count=1 .
	$(GO) test -count=1 ./cmd/figures
	$(GO) test -run 'TestAllocBudget|TestResidentBudget|TestCheckpointBudget' -count=1 . ./gp ./rtec
	$(GO) test -run 'TestShardEquivalenceGrid|TestShardRebalanceDeterminism|TestShardAutoRebalancePipeline|TestShardTierSnapshotRoundTrip|TestShardTierElapsed|TestShardKeyLoadOffWithoutRebalancing|TestShardFreshDedupAcrossShards' -count=1 .
	$(GO) test -run '^$$' -fuzz FuzzCholesky -fuzztime 5s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzSolveVec -fuzztime 5s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzFit -fuzztime 5s ./gp
	$(GO) test -run '^$$' -fuzz FuzzMeanVsDense -fuzztime 5s ./gp
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 5s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzEncodeBatchRows -fuzztime 5s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzMergeBlock -fuzztime 5s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzFoldTransitions -fuzztime 5s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzSeenEntries -fuzztime 5s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzShardAssign -fuzztime 5s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 5s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 5s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzCloseIndex -fuzztime 5s ./traffic
	$(GO) test -run '^$$' -fuzz FuzzReplayCSV -fuzztime 5s ./dublin
	$(GO) test -run '^$$' -fuzz FuzzCongestionField -fuzztime 5s ./dublin
	$(GO) test -run '^$$' -fuzz FuzzLoadXML -fuzztime 5s ./streams

# The recovery bench: the crash-equivalence campaign as a measurement —
# per-epoch recovery wall time and WAL replay volume across 20 kill →
# recover → resume epochs, committed as BENCH_recovery.json.
bench-recovery:
	$(GO) run ./cmd/crashbench -out BENCH_recovery.json

# The RTEC performance benches: the Figure 4 sweep and the step-ratio
# amortization bench (both time Pipeline.Run over an insight.System, the
# product path, collection and build outside the timer; the
# FullRecompute variant is the test-side oracle comparison) and
# steady-state block ingest into the column store, 5 repetitions, as a
# JSON event stream for later comparison.
bench-rtec:
	$(GO) test -run '^$$' -bench 'BenchmarkFig4_EventRecognition|BenchmarkStepRatio|BenchmarkSustainedIngest' \
		-count=5 -timeout 60m -json . | tee BENCH_rtec.json

# The GP benches at n≈512: the flow map's mean and the uncertainty
# map's variances, sparse (MeanAll, VarianceAll) against the dense
# oracle; the dense stages (kernel build, fit, predict-all = the mean,
# predict = mean + variance); grid search. 5 repetitions, as a JSON
# event stream for later comparison.
bench-gp:
	$(GO) test -run '^$$' -bench 'BenchmarkGP_' -benchtime 1x \
		-count=5 -json ./gp | tee BENCH_gp.json

# One durable checkpoint of the 1× product run at its second boundary,
# built (engine snapshots, pending rows) and encoded, with B/ckpt, the
# Fresh dedup identities and the pending rows reported beside ns/op.
# Profile it with: make bench-checkpoint BENCHFLAGS=-cpuprofile=cpu.prof
bench-checkpoint:
	$(GO) test -run '^$$' -bench BenchmarkCheckpoint -benchmem -count=5 $(BENCHFLAGS) .

# The end-to-end benchmark BENCHMARK.json declares: four workloads
# through the real pipeline, every rep a fresh process, end-to-end
# metrics untraced then per-layer metrics traced (a few minutes). One
# workload: go run ./cmd/e2ebench -workload dublin10x-recognize -trace 0
bench-e2e:
	$(GO) run ./cmd/e2ebench

# Go line counts, non-test and test, testdata excluded: the size a
# simplicity change reports against (CHANGES.md quotes it per PR).
loc:
	@find . -name '*.go' -not -path '*/testdata/*' -not -name '*_test.go' | xargs cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*.go' -not -path '*/testdata/*' -name '*_test.go' | xargs cat | wc -l | xargs echo "test Go lines:    "

# ~10s of coverage-guided fuzzing per target; linalg regressions land
# in internal/linalg/testdata/fuzz, GP-fit and sparse-vs-dense mean and
# variance regressions in gp/testdata/fuzz, WAL frame/codec and range-encoder
# regressions in streams/wal/testdata/fuzz, engine-snapshot and
# checkpoint decoder regressions in rtec/testdata/fuzz and
# testdata/fuzz, simple-fluent fold regressions (FoldTransitions against
# its per-time-point oracle) and Fresh dedup snapshot regressions
# (Entries against the comparison sort) in rtec/testdata/fuzz, spatial-index
# regressions in traffic/testdata/fuzz, replay-CSV and ground-truth
# field regressions in dublin/testdata/fuzz, XML flow-definition regressions in
# streams/testdata/fuzz, as permanent corpus seeds.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzCholesky -fuzztime 10s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzSolveVec -fuzztime 10s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzFit -fuzztime 10s ./gp
	$(GO) test -run '^$$' -fuzz FuzzMeanVsDense -fuzztime 10s ./gp
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzEncodeBatchRows -fuzztime 10s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzMergeBlock -fuzztime 10s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzFoldTransitions -fuzztime 10s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzSeenEntries -fuzztime 10s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzShardAssign -fuzztime 10s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzSnapshotDecode -fuzztime 10s ./rtec
	$(GO) test -run '^$$' -fuzz FuzzCheckpointDecode -fuzztime 10s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz FuzzCloseIndex -fuzztime 10s ./traffic
	$(GO) test -run '^$$' -fuzz FuzzReplayCSV -fuzztime 10s ./dublin
	$(GO) test -run '^$$' -fuzz FuzzCongestionField -fuzztime 10s ./dublin
	$(GO) test -run '^$$' -fuzz FuzzLoadXML -fuzztime 10s ./streams

# Regenerate every figure of the paper's evaluation and every extension
# table into ./results: Figure 4, the crowdsourcing figures (5, 6) with
# the scored extension tables (veracity, the Figure 2 ablation, worker
# selection, chaos), Figures 7-9 and the dataset statistics.
figures:
	mkdir -p results
	$(GO) run ./cmd/rtecbench           | tee results/fig4.txt
	$(GO) run ./cmd/figures             | tee results/figures.txt
	$(GO) run ./cmd/gpmap -out results  | tee results/fig7-9.txt
	$(GO) run ./cmd/datagen -stats      | tee results/dataset.txt

clean:
	rm -rf results
