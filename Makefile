# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build vet test test-short race cover bench lint lint-json check bench-rtec bench-gp bench-recovery bench-e2e bench-workload bench-pair bench-checkpoint fuzz-short loc figures clean

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
# rules over every package, and the module-wide unusedapi rule (an
# exported identifier no binary reaches, a field no non-test code
# sets, or a field non-test code sets and none reads — by selector,
# struct tag, comparison or map key, or a JSON/template encoder — is a
# finding). Exits nonzero on any finding; suppress a
# deliberate violation at the site with `//lint:allow rule reason` —
# the reason is required (stalelint reports an allow without one).
lint:
	$(GO) run ./cmd/insightlint

# Same suite, findings as a machine-readable JSON document on stdout.
lint-json:
	$(GO) run ./cmd/insightlint -json

# CI gate: vet everything, run the repo's own analyzer suite (unusedapi
# among its rules: every exported identifier used by a binary or kept
# by a reasoned allow, every field that is set also read; its
# batch-path rule covers the one admission routine, the monitoring
# processor's boundary step and the sharded tier's fold loops of the
# root package and the recorded-stream
# converter of package dublin; snapshotdrift holds every tier field,
# the tier-owned busCongestion inertia included, to the snapshot/restore
# path), run the full module under the race detector (the README's five
# Example functions — quickstart, congestion, crowdresolve,
# sparsitymap, xmlpipeline — held to their // Output:, engine, rule sets,
# the partial-fluent fold property, streams supervision/shutdown, batch
# chaos tests, the parallel grid search and per-vertex variance solves, the
# 10× street graph's flow map held to its normal equations and to
# under 1 MB of heap —
# including the one-loop gates: an OnReport run ≡ the per-event reference by full
# fingerprint on both tiers with crowd rounds on, boundaries due together
# (a recording that ends early, a dead mediator) each finished before the
# next with their verdicts fed back, the report callback seeing exactly
# its boundary, cancellation reaching a crowd round, every way out of a
# run returning the transport buffers, cursor admission ≡ the per-event
# reference with drops, duplicates, re-ordered and late delivery,
# boundary-equal stamps and streams degraded mid-batch, an envelope with
# decreasing arrivals dead-lettered at the validator, live ≡ replayed ≡
# CSV round trip — and the crash-equivalence campaign, crowdless and
# with participants (its crowd case: the EM estimator equal to the
# uninterrupted run's and a round asked again after a recovery): a seeded fault
# script over the storage seam (internal/vfs) of 20 torn WAL appends, a
# torn checkpoint with a torn log tail in the same crash, a corrupted, a
# torn and a durable-then-killed checkpoint, every armed fault firing,
# recovered output bit-identical to the uninterrupted run — and the
# storage-error cases: ENOSPC on a WAL write, EIO on a WAL fsync, segment
# roll, torn-tail truncation and segment removal, and on a checkpoint
# create, rename, removal and directory listing each fail the build or
# Run with that error and recover on healthy storage — and the retention
# case: a lone checkpoint rewritten in place and corrupted leaves the
# whole log for a cold start — and the bound cases, every source paced:
# the busy city's retained log and the rows a resume rebuilds are flat
# from 1 h to 3 h of run, and one engine fed a new key per SDE holds
# resident bytes, inertia seeds, dedup identities, key dictionaries and
# per-key index flat from 10 to 40 windows), re-run every Example three
# times under the race detector (an output that depends on how the
# scheduler interleaves goroutines shows as a mismatch), re-run the
# crash campaign 20 more times under the race
# detector (its fault schedule and counts are the same on every run),
# re-run the crash gate and the mid-block-cursor checkpoint rebuild
# race-free so their assertions are exercised under both schedulers,
# re-run the scored-figures gate race-free (cmd/figures: every number
# the paper's figures and the extension tables score — Figure 4's SDEs,
# derived events and fluent periods per working memory, static and
# self-adaptive; Figures 5/6; Figure 9's street graph, grid-search α, β
# and CV RMSE and flow-map range, its maps held to the dense Fit +
# Predict; veracity precision/recall/F1 against the generator's ground
# truth, the Figure 2 ablation's lost SDEs and scats F1, worker-selection
# accuracy, the chaos profiles against their fault-free run — equal to
# testdata/scores.json, a drop in a quality score named as a
# regression; Figure 4 and chaos run twice, their scores independent of
# the schedule; every System-driven table — Figure 4, veracity, the
# ablation, chaos — built by scenario.run on the shard tier and, in
# TestFiguresAnswerAsOneEngine, run again on one engine (Partitions: 1),
# the figure-level twin of TestShardEquivalenceGrid: equal report
# fingerprints and scores), gate the block ingest path
# and the recognition path (allocations per derived event or busCongestion point of the bus ×
# intersection rules) and a crowd round (objects and bytes per round over
# an hour of the operator workload) against their committed allocation budgets, the
# column store against the committed resident bytes/event advantage
# over the row store (the named reference) and the checkpoint file
# against its bytes-per-checkpoint budget — no SDE row, the log holds
# them all (the race detector
# inflates allocation counts, so those gates run in a separate non-race
# pass, as do the boundary cost record's: every work count of the small
# city's sharded run pinned per boundary — rows admitted and inserted,
# Reported probes, fold points, crowd rounds, no close/4 join inside
# recognition on any driver — the WAL's per-run totals, and a record
# filled without an allocation; gp's PredictAll and MeanAll are held to a constant number of
# slices there too — the dense mean is a gather and one product, the
# sparse one a CG solve over the street graph whose allocations do not
# grow with it — and VarianceAll to a constant number per worker,
# nothing per vertex's solve; rtec's FoldTransitions to a constant number of objects
# per call whatever the number of fluent instances),
# re-run the shard gates race-free (the N ∈ {1,2,4,8} ×
# both-store grid under chaos — CE sets, events, every fluent's
# intervals and the derived/period counts against the single engine —
# the tier snapshot round-trip, the tier's elapsed-time accounting and
# the scripted cross-shard Fresh dedup case — a late second shard's
# duplicate; the race pass above already exercises them under the
# race scheduler), and finish with a short
# fuzz pass over the one dense factorization/solve (ErrNotSPD or a
# backward-stable residual), GP-fit ("error or all-finite estimates"),
# GP sparse-vs-dense maps (MeanAll and VarianceAll equal the dense
# kernel's Fit + Predict within 1e-9 of each map, or all refuse),
# WAL-decode, WAL record-encode (EncodeBatch of a batch whose
# dictionaries hold entries its rows do not use equals the dictionary
# dump of a fresh copy of the rows, byte for byte), store block-merge, simple-fluent
# fold (FoldTransitions equals a per-time-point holdsFor interpreter,
# whatever the points' split into parts, order and duplicates), Fresh
# dedup snapshot (seenSet.Entries equals a comparison sort of every
# identity, through Add, Prune and Restore), shard-assignment,
# engine-snapshot-decode, checkpoint-decode (format 5 seed corpus,
# verdict and estimator sections included),
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
	$(GO) test -race -count=3 -run '^Example' ./...
	$(GO) test -race -run TestCrashEquivalence -count=20 .
	$(GO) test -run 'TestCrashEquivalence|TestCheckpointMidBlockCursors|TestReportsLeaveOneWay|TestRecoveryCheckpointKilled' -count=1 .
	$(GO) test -count=1 ./cmd/figures
	$(GO) test -run 'TestAllocBudget|TestResidentBudget|TestCheckpointBudget' -count=1 . ./gp ./rtec
	$(GO) test -run 'TestSpanCountsPinned|TestSpanRecordAllocatesNothing|TestSpanNoJoinsInRecognition' -count=1 .
	$(GO) test -run 'TestShardEquivalenceGrid|TestShardTierSnapshotRoundTrip|TestShardTierElapsed|TestShardFreshDedupAcrossShards' -count=1 .
	$(GO) test -run '^$$' -fuzz FuzzCholesky -fuzztime 5s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzSolveVec -fuzztime 5s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzFit -fuzztime 5s ./gp
	$(GO) test -run '^$$' -fuzz FuzzMeanVsDense -fuzztime 5s ./gp
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 5s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzEncodeBatch -fuzztime 5s ./streams/wal
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

# Recovery of the 1× durable run killed right after its second
# boundary's checkpoint (the kill cmd/e2ebench's insight.recover_ms
# uses): a durable System.Pipeline on a fresh copy of the killed directory —
# restore, rebuild of the working memory from the log's window, replay of
# its tail — with the loaded checkpoint's bytes (B/ckpt), the SDE rows
# re-read for the rebuild and the WAL records replayed beside ns/op.
bench-recovery:
	$(GO) test -run '^$$' -bench BenchmarkRecovery -benchmem -count=5 $(BENCHFLAGS) .

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
# built (engine snapshots, window offset, readings) and encoded, with
# B/ckpt, the Fresh dedup identities and the pending rows recovery
# rebuilds reported beside ns/op.
# Profile it with: make bench-checkpoint BENCHFLAGS=-cpuprofile=cpu.prof
bench-checkpoint:
	$(GO) test -run '^$$' -bench BenchmarkCheckpoint -benchmem -count=5 $(BENCHFLAGS) .

# The end-to-end benchmark BENCHMARK.json declares: four workloads
# through the real pipeline, every rep a fresh process, end-to-end
# metrics untraced then per-layer metrics traced (a few minutes). One
# workload: go run ./cmd/e2ebench -workload dublin10x-recognize -trace 0
bench-e2e:
	$(GO) run ./cmd/e2ebench

# The four cmd/e2ebench workloads in-process through System.Pipeline
# (BenchmarkWorkload), 3 runs each: per SDE every Report.Span stage's
# wall ns and heap bytes and the engines' QuerySum/QueryMax, per run the
# SDEs and the work counts. Each run's stream is generated outside the
# timer and the run carries the profiler label workload=<name>, so
#   make bench-workload WORKLOAD=dublin1x-late BENCHFLAGS=-cpuprofile=cpu.prof
#   go tool pprof -tagfocus workload=dublin1x-late -top cpu.prof
# profiles the late run alone.
WORKLOAD ?= .
bench-workload:
	$(GO) test -run '^$$' -bench 'BenchmarkWorkload/$(WORKLOAD)' -benchtime 3x -count=1 $(BENCHFLAGS) .

# BenchmarkWorkload paired against another revision: BASE is exported
# with git archive into a temporary directory (no worktree is left
# registered), the current workload_bench_test.go is copied over its
# own, both test binaries are built with go test -c, and PAIRS rounds
# run the base and then the change (-benchtime PAIRTIME each, one
# process per run). cmd/benchdiff then prints, per workload and metric,
# both medians, the base's quartiles and the pairs the change won, and
# first the work counts that differ. The two raw outputs stay in
# PAIRDIR (a fresh temporary directory unless given). For example
#   make bench-pair BASE=HEAD~1 WORKLOAD=dublin1x-operator
BASE ?= HEAD
PAIRS ?= 10
PAIRTIME ?= 3x
PAIRDIR ?=
bench-pair:
	@set -e; dir="$(PAIRDIR)"; [ -n "$$dir" ] || dir=$$(mktemp -d); mkdir -p "$$dir"; \
	src=$$(mktemp -d); trap 'rm -rf "$$src"' EXIT; \
	git archive $(BASE) | tar -x -C "$$src"; \
	cp workload_bench_test.go "$$src/"; \
	(cd "$$src" && $(GO) test -c -o "$$dir/base.test" .); \
	$(GO) test -c -o "$$dir/change.test" .; \
	: > "$$dir/base.txt"; : > "$$dir/change.txt"; \
	for i in $$(seq $(PAIRS)); do \
		echo "pair $$i of $(PAIRS)"; \
		for side in base change; do \
			"$$dir/$$side.test" -test.run '^$$' -test.bench 'BenchmarkWorkload/$(WORKLOAD)' \
				-test.benchtime $(PAIRTIME) -test.timeout 60m >> "$$dir/$$side.txt"; \
		done; \
	done; \
	echo "raw runs in $$dir"; \
	$(GO) run ./cmd/benchdiff "$$dir/base.txt" "$$dir/change.txt"

# Go line counts, non-test and test, testdata excluded: the size a
# simplicity change reports against (CHANGES.md quotes it per PR).
loc:
	@find . -name '*.go' -not -path '*/testdata/*' -not -name '*_test.go' | xargs cat | wc -l | xargs echo "non-test Go lines:"
	@find . -name '*.go' -not -path '*/testdata/*' -name '*_test.go' | xargs cat | wc -l | xargs echo "test Go lines:    "

# ~10s of coverage-guided fuzzing per target; linalg regressions land
# in internal/linalg/testdata/fuzz, GP-fit and sparse-vs-dense mean and
# variance regressions in gp/testdata/fuzz, WAL frame/codec and record-encoder
# regressions in streams/wal/testdata/fuzz, engine-snapshot and
# checkpoint decoder regressions in rtec/testdata/fuzz and
# testdata/fuzz, simple-fluent fold regressions (FoldTransitions against
# its per-time-point oracle) and Fresh dedup snapshot regressions
# (the set against a plain model) in rtec/testdata/fuzz, spatial-index
# regressions in traffic/testdata/fuzz, replay-CSV and ground-truth
# field regressions in dublin/testdata/fuzz, XML flow-definition regressions in
# streams/testdata/fuzz, as permanent corpus seeds.
fuzz-short:
	$(GO) test -run '^$$' -fuzz FuzzCholesky -fuzztime 10s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzSolveVec -fuzztime 10s ./internal/linalg
	$(GO) test -run '^$$' -fuzz FuzzFit -fuzztime 10s ./gp
	$(GO) test -run '^$$' -fuzz FuzzMeanVsDense -fuzztime 10s ./gp
	$(GO) test -run '^$$' -fuzz FuzzWALDecode -fuzztime 10s ./streams/wal
	$(GO) test -run '^$$' -fuzz FuzzEncodeBatch -fuzztime 10s ./streams/wal
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
# table into ./results: Figures 4-6 and 7-9 (the three SVG maps beside
# the text) with the scored extension tables (veracity, the Figure 2
# ablation, worker selection, chaos), then the dataset statistics.
figures:
	mkdir -p results
	$(GO) run ./cmd/figures -out results | tee results/figures.txt
	$(GO) run ./cmd/datagen -stats       | tee results/dataset.txt

clean:
	rm -rf results
