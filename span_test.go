package insight

import (
	"context"
	"fmt"
	"testing"
	"time"

	"github.com/insight-dublin/insight/rtec"
)

// TestSpanRecordAllocatesNothing: filling a boundary's cost record —
// opening it, marking every stage, the engines' filing and query times,
// the log's and the append's charges, handing it to the report —
// allocates nothing.
func TestSpanRecordAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rec := newSpanRecorder()
	results := []*rtec.Result{{Stats: rtec.Stats{Elapsed: time.Millisecond}}, {Stats: rtec.Stats{Elapsed: 2 * time.Millisecond}}}
	filing := []time.Duration{3 * time.Millisecond, time.Millisecond}
	st := &durableState{}
	rep := &Report{}
	allocs := testing.AllocsPerRun(200, func() {
		rec.open()
		s := &rec.span
		for _, stage := range []*StageCost{&s.Release, &s.Admit, &s.Query, &s.FoldFresh, &s.FoldBus, &s.Merge, &s.Assemble, &s.Crowd} {
			rec.mark(stage)
		}
		rec.admitTimes(filing)
		rec.engineTimes(results)
		st.chargeAppend(StageCost{Wall: time.Microsecond, HeapBytes: 64}, 128)
		rep.Span = rec.span
		rec.mark(&rec.next.Callback)
	})
	if allocs != 0 {
		t.Errorf("filling the span record allocates %.1f objects per boundary, want 0", allocs)
	}
	if rep.Span.QueryMax != 2*time.Millisecond || rep.Span.QuerySum != 3*time.Millisecond {
		t.Errorf("engine times max %v sum %v, want 2ms and 3ms", rep.Span.QueryMax, rep.Span.QuerySum)
	}
	if rep.Span.AdmitMax != 3*time.Millisecond || rep.Span.AdmitSum != 4*time.Millisecond {
		t.Errorf("engine filing times max %v sum %v, want 3ms and 4ms", rep.Span.AdmitMax, rep.Span.AdmitSum)
	}
}

// spanSystem is the small city with the sharded tier (folds and the
// cross-shard dedup on) and, given participants, crowd rounds.
func spanSystem(t *testing.T, participants int) *System {
	t.Helper()
	city := testCity(t)
	cfg := durableConfig(city)
	cfg.Shards = 2
	if participants > 0 {
		cfg.Participants = testParticipants(city, participants)
	}
	sys, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSpanNoJoinsInRecognition: every kind of System.Pipeline — plain
// on both tiers, durable, a replay — runs recognition on
// stamped moves, so the record reads no close/4 join at any boundary,
// while it does read admitted and inserted rows and the engines' filing
// times.
func TestSpanNoJoinsInRecognition(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8*3600 + 1800)
	check := func(t *testing.T, reports []*Report) {
		t.Helper()
		if len(reports) != int((until-from)/900) {
			t.Fatalf("%d reports", len(reports))
		}
		rows := 0
		for _, rep := range reports {
			if rep.Span.Joins != 0 {
				t.Errorf("q=%d: %d close/4 joins inside recognition", rep.Q, rep.Span.Joins)
			}
			if rep.Span.RowsAdmitted != rep.FedEvents || rep.Span.Query.Wall <= 0 {
				t.Errorf("q=%d: record admitted %d of %d fed rows, query wall %v", rep.Q, rep.Span.RowsAdmitted, rep.FedEvents, rep.Span.Query.Wall)
			}
			if rep.Span.RowsAdmitted > 0 && (rep.Span.AdmitMax <= 0 || rep.Span.AdmitSum < rep.Span.AdmitMax) {
				t.Errorf("q=%d: %d rows admitted with engine filing times max %v sum %v", rep.Q, rep.Span.RowsAdmitted, rep.Span.AdmitMax, rep.Span.AdmitSum)
			}
			rows += rep.Span.RowsInserted
		}
		if rows == 0 {
			t.Error("no row inserted at any boundary")
		}
	}
	t.Run("BuildPipeline/partitioned", func(t *testing.T) {
		sys, err := New(Config{City: testCity(t)})
		if err != nil {
			t.Fatal(err)
		}
		pipe, _, err := sys.Pipeline(from, until, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, reports)
	})
	t.Run("BuildPipeline/sharded", func(t *testing.T) {
		pipe, _, err := spanSystem(t, 8).Pipeline(from, until, PipelineOptions{})
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, reports)
	})
	t.Run("BuildDurablePipeline", func(t *testing.T) {
		pipe, _, err := spanSystem(t, 0).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: t.TempDir()}})
		if err != nil {
			t.Fatal(err)
		}
		reports, err := pipe.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		check(t, reports)
		var records, checkpoints int64
		for _, rep := range reports {
			records += rep.Span.WALRecords
			checkpoints += int64(rep.Span.Checkpoints)
		}
		if records == 0 || checkpoints == 0 {
			t.Errorf("the records saw %d WAL records and %d checkpoints", records, checkpoints)
		}
	})
	t.Run("RunReplay", func(t *testing.T) {
		city := testCity(t)
		sys, err := New(Config{City: city})
		if err != nil {
			t.Fatal(err)
		}
		var reports []*Report
		if err := runToEnd(context.Background())(sys.Pipeline(from, until, PipelineOptions{Replay: city.Collect(from, until), OnReport: func(rep *Report) error {
			reports = append(reports, rep)
			return nil
		}})); err != nil {
			t.Fatal(err)
		}
		check(t, reports)
	})
}

// spanCounts are the record's work counts a boundary's input and the
// configuration decide.
type spanCounts struct {
	admitted, inserted, fresh, probes, points, crowd int
	joins                                            int64
}

func (c spanCounts) String() string {
	return fmt.Sprintf("{%d, %d, %d, %d, %d, %d, %d}", c.admitted, c.inserted, c.fresh, c.probes, c.points, c.crowd, c.joins)
}

// TestSpanCountsPinned pins the record's work counts per boundary of
// the small city's sharded run with crowd rounds — rows admitted, rows
// inserted over both shards, events the shards reported fresh, Reported
// probes, fold points, crowd rounds and close/4 joins — and the WAL's
// per-run totals under the deterministic durable driver (per boundary
// they depend on how far ingest ran ahead). A changed count is a
// changed amount of work. With two shards, each fresh event is one
// probe of the other shard's dedup set, unless both report it at once.
func TestSpanCountsPinned(t *testing.T) {
	const from, until = Time(7 * 3600), Time(9 * 3600)
	want := []spanCounts{
		{2236, 2381, 9, 9, 28, 8, 0}, // 07:15
		{2281, 2445, 4, 4, 58, 2, 0},
		{2296, 2450, 6, 6, 54, 5, 0}, // 07:45
		{2285, 2443, 9, 9, 49, 6, 0},
		{2273, 2431, 15, 15, 52, 10, 0}, // 08:15
		{2287, 2456, 14, 14, 55, 7, 0},
		{2275, 2434, 15, 15, 55, 8, 0}, // 08:45
		{2295, 2462, 17, 17, 49, 9, 0},
	}
	pipe, _, err := spanSystem(t, 8).Pipeline(from, until, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := pipe.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var got []spanCounts
	for _, rep := range reports {
		s := rep.Span
		got = append(got, spanCounts{s.RowsAdmitted, s.RowsInserted, s.FreshEvents, s.ReportedProbes, s.FoldPoints, s.CrowdRounds, s.Joins})
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("per-boundary counts {admitted, inserted, fresh, probes, points, crowd, joins}:\n got %v\nwant %v", got, want)
	}

	r := newDurableReplay(t, testCity(t), nil)
	var wal [3]int64
	ack := r.rt.proc.onReport
	r.rt.proc.onReport = func(rep *Report) error {
		wal[0] += rep.Span.WALRecords
		wal[1] += rep.Span.WALBytes
		wal[2] += rep.Span.WALSyncs
		return ack(rep)
	}
	r.run(t, 0)
	if want := [3]int64{37, 193829, 38}; wal != want {
		t.Errorf("WAL totals {records, bytes, fsyncs} over the records = %v, want %v", wal, want)
	}
}
