package insight

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/geo"
	"github.com/insight-dublin/insight/rtec"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/streams/wal"
	"github.com/insight-dublin/insight/traffic"
)

// The close/4 stamp: the input stage writes each move's close list once
// (sdeValidator.stampClose), the log carries it and the rules read it
// instead of joining at every query. These tests hold the stamp to the
// join it replaces and the recognition it feeds to the unstamped path.

// checkStamps validates (and so stamps) every move batch of bstreams
// and holds each row's stamp to areas.AppendClose on its position. It
// returns the number of moves and of moves close to an extra area (an
// index at or past scats). The batches stay owned by the caller.
func checkStamps(t *testing.T, sys *System, bstreams []dublin.BatchedStream) (moves, nearExtra int) {
	t.Helper()
	validate := sdeValidator{areas: sys.areas}
	scats := int32(len(sys.registry.Intersections()))
	var want []int32
	for _, bs := range bstreams {
		for _, b := range bs.Batches {
			if b.Type != traffic.MoveType {
				continue
			}
			if _, err := validate.ProcessBatch(b); err != nil {
				t.Fatal(err)
			}
			c, lon, lat := b.Col(traffic.CloseColumn), b.Col("lon"), b.Col("lat")
			for i := 0; i < b.Len(); i++ {
				want = sys.areas.AppendClose(want[:0], geo.LonLat(lon.F[i], lat.F[i]))
				if got := c.List(i); !slices.Equal(got, want) {
					t.Fatalf("move %s@%d at (%v, %v): stamp %v, AppendClose %v", b.Keys[i], b.Times[i], lon.F[i], lat.F[i], got, want)
				}
				if len(want) > 0 && want[len(want)-1] >= scats {
					nearExtra++
				}
				moves++
			}
		}
	}
	return moves, nearExtra
}

func releaseAll(bstreams []dublin.BatchedStream) {
	for _, bs := range bstreams {
		for _, b := range bs.Batches {
			b.Release()
		}
	}
}

// TestCloseStampEqualsJoin: on every move of the 1× late stream and of
// the 10× stream the stamp is exactly the area index's AppendClose — on
// the late stream with extra areas of interest laid over the bus routes,
// whose indexes follow the SCATS intersections'.
func TestCloseStampEqualsJoin(t *testing.T) {
	cases := []struct {
		name        string
		cfg         dublin.Config
		from, until Time
		extraAreas  bool
	}{
		{"1x-late", dublin.Config{Seed: 42, MaxDelay: 600}, 6 * 3600, 9 * 3600, true},
		{"10x", dublin.Profile10x(42), 7 * 3600, 7*3600 + 480, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			city, err := dublin.NewCity(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			bstreams := city.CollectBatches(tc.from, tc.until, transportBatchRows, 0)
			defer releaseAll(bstreams)
			cfg := Config{City: city}
			if tc.extraAreas {
				// Every 997th bus report's position, a few metres off.
				var n int
				for _, b := range bstreams[0].Batches {
					lon, lat := b.Col("lon"), b.Col("lat")
					for i := 0; i < b.Len(); i++ {
						if n++; n%997 == 0 {
							cfg.Traffic.ExtraAreas = append(cfg.Traffic.ExtraAreas, traffic.Area{
								ID: fmt.Sprintf("area-%d", n), Pos: geo.LonLat(lon.F[i]+0.0001, lat.F[i]),
							})
						}
					}
				}
			}
			sys, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			moves, nearExtra := checkStamps(t, sys, bstreams)
			t.Logf("%d moves, %d close to an extra area (%d extra areas)", moves, nearExtra, len(cfg.Traffic.ExtraAreas))
			if moves == 0 || tc.extraAreas && nearExtra == 0 {
				t.Fatalf("%d moves, %d close to an extra area: the stream does not exercise the stamp", moves, nearExtra)
			}
		})
	}
}

// TestCloseStampAdversarialPoints: at an intersection, just inside and
// just outside the close threshold, at non-finite coordinates and
// outside the grid, the stamp is AppendClose's answer, which is the
// linear scan of geo.Close over every area.
func TestCloseStampAdversarialPoints(t *testing.T) {
	sys, err := New(Config{City: testCity(t)})
	if err != nil {
		t.Fatal(err)
	}
	areas := sys.areas.Intersections()
	p0 := areas[0].Pos
	// Bisect the latitude offset at which p0's neighbour stops being
	// close: inside is the last close point, outside the next float up.
	lo, hi := 0.0, 0.01
	for range 200 {
		mid := (lo + hi) / 2
		if geo.Close(geo.LonLat(p0.Lon, p0.Lat+mid), p0, closeMeters) {
			lo = mid
		} else {
			hi = mid
		}
	}
	inside, outside := p0.Lat+lo, math.Nextafter(p0.Lat+lo, math.Inf(1))
	points := []geo.Point{
		p0,
		geo.LonLat(p0.Lon, inside),
		geo.LonLat(p0.Lon, outside),
		geo.LonLat(math.NaN(), p0.Lat),
		geo.LonLat(p0.Lon, math.NaN()),
		geo.LonLat(math.Inf(1), p0.Lat),
		geo.LonLat(p0.Lon, math.Inf(-1)),
		geo.LonLat(0, 0),
		geo.LonLat(p0.Lon+1, p0.Lat),
		geo.LonLat(181, p0.Lat),
		geo.LonLat((areas[0].Pos.Lon+areas[1].Pos.Lon)/2, (areas[0].Pos.Lat+areas[1].Pos.Lat)/2),
	}
	b := streams.NewBatch(traffic.MoveType, "bus")
	for i, p := range points {
		b.Append(int64(7*3600+i), int64(7*3600+i), "bus-x")
		b.FloatCol("lon").AppendFloat(p.Lon)
		b.FloatCol("lat").AppendFloat(p.Lat)
	}
	if _, err := (sdeValidator{areas: sys.areas}).ProcessBatch(b); err != nil {
		t.Fatal(err)
	}
	c := b.Col(traffic.CloseColumn)
	for i, p := range points {
		var scan []int32
		for a, in := range areas {
			if geo.Close(p, in.Pos, closeMeters) {
				scan = append(scan, int32(a))
			}
		}
		join := sys.areas.AppendClose(nil, p)
		if got := c.List(i); !slices.Equal(got, join) || !slices.Equal(join, scan) {
			t.Errorf("point %d %v: stamp %v, AppendClose %v, linear scan %v", i, p, got, join, scan)
		}
	}
	if len(c.List(1)) == 0 || slices.Contains(c.List(2), 0) {
		t.Errorf("threshold points: inside %v, outside %v — the bisection missed the edge", c.List(1), c.List(2))
	}
}

// resultDigest renders everything a Result holds that recognition
// decides — fluent intervals, derived and fresh events with their
// attributes — plus the given transition points of a partial fluent.
func resultDigest(res *rtec.Result, trans []rtec.Transition) string {
	var lines []string
	for name, m := range res.Fluents {
		for kv, l := range m {
			lines = append(lines, fmt.Sprintf("F %s %s=%s %v", name, kv.Key, kv.Value, l))
		}
	}
	for typ, evs := range res.Derived {
		for _, ev := range evs {
			lines = append(lines, fmt.Sprintf("D %s %s %d %s", typ, ev.Key, ev.Time, rtec.CanonicalAttrs(ev)))
		}
	}
	sort.Strings(lines)
	for _, ev := range res.Fresh {
		lines = append(lines, fmt.Sprintf("N %s %s %d %s", ev.Type, ev.Key, ev.Time, rtec.CanonicalAttrs(ev)))
	}
	for _, tr := range trans {
		lines = append(lines, fmt.Sprintf("T %v", tr))
	}
	return strings.Join(lines, "\n")
}

// TestStampedRecognitionMatchesUnstamped: an engine fed the stamped
// blocks the pipeline admits and one fed the same rows without the
// stamp — the rules then join each move themselves — return equal
// Results at every query, for the single-engine rule set with extra
// areas and for the adaptive shard rule set; only the unstamped engine
// evaluates close/4.
func TestStampedRecognitionMatchesUnstamped(t *testing.T) {
	const from, until, wm, step = Time(7 * 3600), Time(8 * 3600), Time(1800), Time(450)
	city := testCity(t)
	tcfg := traffic.Config{NoisyPolicy: traffic.Pessimistic, Adaptive: true}
	reg, err := city.Registry(closeMeters)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range reg.Intersections()[:4] {
		tcfg.ExtraAreas = append(tcfg.ExtraAreas, traffic.Area{ID: "near-" + in.ID, Pos: geo.LonLat(in.Pos.Lon+0.0008, in.Pos.Lat)})
	}
	sys, err := New(Config{City: city, Traffic: tcfg})
	if err != nil {
		t.Fatal(err)
	}
	tcfg.Registry = sys.registry
	bstreams := city.CollectBatches(from, until, transportBatchRows, 0)
	defer releaseAll(bstreams)
	checkStamps(t, sys, bstreams)
	// Both engines take the same rows in the same order: stream by
	// stream, each batch's rows that arrived by q.
	type feed struct {
		blk, bare *rtec.Block
		arrivals  []int64
		next      int
	}
	var feeds []*feed
	for _, bs := range bstreams {
		for _, b := range bs.Batches {
			blk := dublin.Block(b)
			bare := *blk
			bare.Cols = slices.DeleteFunc(slices.Clone(blk.Cols), func(c rtec.BCol) bool { return c.Name == traffic.CloseColumn })
			feeds = append(feeds, &feed{blk: blk, bare: &bare, arrivals: b.Arrivals})
		}
	}
	shardDefs, err := traffic.BuildShard(tcfg, traffic.ShardPlan{OwnsSensor: func(string) bool { return true }})
	if err != nil {
		t.Fatal(err)
	}
	// The product set with agree, internal to it, declared an output too,
	// so the comparison reaches that rule.
	singleDefs, err := traffic.BuildWith(tcfg, func(b *rtec.Builder) { b.Output(traffic.Agree) })
	if err != nil {
		t.Fatal(err)
	}
	for _, rs := range []struct {
		name string
		defs *rtec.Definitions
	}{{"single", singleDefs}, {"shard", shardDefs}} {
		t.Run(rs.name+"/column", func(t *testing.T) {
			opts := rtec.Options{WorkingMemory: wm}
			stamped, err := rtec.NewEngine(rs.defs, opts)
			if err != nil {
				t.Fatal(err)
			}
			bare, err := rtec.NewEngine(rs.defs, opts)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range feeds {
				f.next = 0
			}
			joins, content := int64(0), map[string]int{}
			for q := from + step; q <= until; q += step {
				for _, f := range feeds {
					var rows []int32
					for ; f.next < len(f.arrivals) && Time(f.arrivals[f.next]) <= q; f.next++ {
						rows = append(rows, int32(f.next))
					}
					if len(rows) == 0 {
						continue
					}
					if err := stamped.InputBlockRows(f.blk, rows); err != nil {
						t.Fatal(err)
					}
					if err := bare.InputBlockRows(f.bare, rows); err != nil {
						t.Fatal(err)
					}
				}
				got, err := stamped.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := bare.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				g := resultDigest(got, stamped.Transitions(traffic.BusCongestion))
				w := resultDigest(want, bare.Transitions(traffic.BusCongestion))
				if g != w {
					t.Fatalf("q=%d: stamped and unstamped results differ:\n--- stamped ---\n%s\n--- unstamped ---\n%s", q, g, w)
				}
				for _, prefix := range []string{"D " + traffic.Agree, "D " + traffic.Disagree, "F " + traffic.BusCongestion + " near-", "T "} {
					content[prefix] += strings.Count(g, "\n"+prefix)
				}
				if got.Stats.Joins != 0 {
					t.Errorf("q=%d: stamped engine evaluated close/4 %d times", q, got.Stats.Joins)
				}
				joins += want.Stats.Joins
			}
			if joins == 0 {
				t.Error("the unstamped engine never joined: the fallback is not exercised")
			}
			for prefix, n := range content {
				if n == 0 && (prefix != "T " || rs.name == "shard") && (prefix != "D "+traffic.Agree && !strings.HasPrefix(prefix, "F ") || rs.name == "single") {
					t.Errorf("no %q line in any result: the comparison does not reach that rule", prefix)
				}
			}
		})
	}
}

// TestPooledMoveBatchRestamped: a move batch stamped, released to the
// pool and refilled by the generator comes back with its close column
// unfilled; the validator accepts it and stamps it again, exactly as it
// stamped the first collection.
func TestPooledMoveBatchRestamped(t *testing.T) {
	const from, until = Time(7 * 3600), Time(7*3600 + 1800)
	city := testCity(t)
	sys, err := New(Config{City: city})
	if err != nil {
		t.Fatal(err)
	}
	stamps := func(bstreams []dublin.BatchedStream) [][]int32 {
		var out [][]int32
		for _, b := range bstreams[0].Batches {
			c := b.Col(traffic.CloseColumn)
			for i := 0; i < b.Len(); i++ {
				out = append(out, slices.Clone(c.List(i)))
			}
		}
		return out
	}
	first := city.CollectBatches(from, until, transportBatchRows, 0)
	checkStamps(t, sys, first)
	want := stamps(first)
	recycled := map[*streams.Batch]bool{}
	for _, b := range first[0].Batches {
		recycled[b] = true
	}
	releaseAll(first)

	second := city.CollectBatches(from, until, transportBatchRows, 0)
	defer releaseAll(second)
	reused := 0
	for _, b := range second[0].Batches {
		if c := b.Col(traffic.CloseColumn); c != nil {
			if !c.Unfilled() {
				t.Fatalf("a refilled batch's close column holds %d rows before the stage ran", c.Len())
			}
			reused++
		}
	}
	if reused == 0 {
		t.Skip("the pool handed back no stamped batch (a GC emptied it)")
	}
	checkStamps(t, sys, second)
	if got := stamps(second); !slices.EqualFunc(got, want, slices.Equal[[]int32]) {
		t.Error("the recycled batches were stamped differently from the first collection")
	}
}

// TestReplayRefusesCorruptStamp: the log is input from outside the
// program. A record logged before the stage existed, without a stamp,
// replays (the rules join its moves); a record whose stamp indexes past
// the area index is refused as corrupt, naming its offset.
func TestReplayRefusesCorruptStamp(t *testing.T) {
	const from, until = Time(7 * 3600), Time(8 * 3600)
	city := testCity(t)
	first := func() *streams.Batch {
		bstreams := city.CollectBatches(from, until, transportBatchRows, 0)
		b := bstreams[0].Batches[0]
		bstreams[0].Batches = bstreams[0].Batches[1:]
		releaseAll(bstreams)
		return b
	}
	// logged writes b as the log's only record and returns the directory.
	logged := func(t *testing.T, b *streams.Batch) string {
		t.Helper()
		dir := t.TempDir()
		log, err := wal.Open(filepath.Join(dir, "wal"), wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := log.Append(wal.EncodeBatch(nil, b)); err != nil {
			t.Fatal(err)
		}
		if err := log.Close(); err != nil {
			t.Fatal(err)
		}
		b.Release()
		return dir
	}

	t.Run("unstamped", func(t *testing.T) {
		b := first()
		if c := b.Col(traffic.CloseColumn); c != nil && !c.Unfilled() {
			t.Fatal("a generated batch carries a stamp before the input stage")
		}
		dir := logged(t, b)
		pipe, info, err := durableSystem(t, city).Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: dir}})
		if err != nil {
			t.Fatal(err)
		}
		defer pipe.release()
		defer pipe.proc.durable.log.Close()
		if info.ReplayedRecords != 1 {
			t.Fatalf("replayed %d records, want the unstamped one", info.ReplayedRecords)
		}
	})
	t.Run("out-of-range", func(t *testing.T) {
		b := first()
		sys := durableSystem(t, city)
		if _, err := (sdeValidator{areas: sys.areas}).ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		c := b.Col(traffic.CloseColumn)
		if len(c.L) == 0 {
			t.Fatal("the first bus batch is close to nothing")
		}
		c.L[len(c.L)-1] = int32(len(sys.areas.Intersections()))
		_, _, err := sys.Pipeline(from, until, PipelineOptions{Durable: &DurableOptions{Dir: logged(t, b)}})
		if err == nil || !strings.Contains(err.Error(), "replay record at 0") || !strings.Contains(err.Error(), "close stamp") {
			t.Fatalf("durable Pipeline = %v, want the record at offset 0 refused for its stamp", err)
		}
	})
}

// TestValidatorRefusesMalformedBatch: what the rules or the column
// readers would index without a bounds check is refused at the input
// stage — a string index past its dictionary, a move batch without
// float lon/lat columns — and a source's own close column is replaced
// by the stage's, never trusted.
func TestValidatorRefusesMalformedBatch(t *testing.T) {
	sys, err := New(Config{City: testCity(t)})
	if err != nil {
		t.Fatal(err)
	}
	validate := sdeValidator{areas: sys.areas}
	move := func() *streams.Batch {
		b := streams.NewBatch(traffic.MoveType, "bus")
		in := sys.registry.Intersections()[0]
		b.Append(7*3600, 7*3600, "bus-1")
		b.StrCol("line").AppendStr("L1")
		b.FloatCol("lon").AppendFloat(in.Pos.Lon)
		b.FloatCol("lat").AppendFloat(in.Pos.Lat)
		return b
	}
	for _, tc := range []struct {
		name   string
		mutate func(b *streams.Batch)
		want   string
	}{
		{"string index past dictionary", func(b *streams.Batch) { b.Col("line").SIdx[0] = 5 }, "outside dictionary"},
		{"no lon column", func(b *streams.Batch) {
			b.Cols = slices.DeleteFunc(b.Cols, func(c streams.Col) bool { return c.Name == "lon" })
		}, "lon and lat"},
		{"int lat column", func(b *streams.Batch) {
			c := b.Col("lat")
			c.Kind, c.F, c.I = streams.ColInt, nil, []int64{53}
		}, "lon and lat"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := move()
			tc.mutate(b)
			if _, err := validate.ProcessBatch(b); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("ProcessBatch = %v, want an error about %q", err, tc.want)
			}
		})
	}
	t.Run("source close column replaced", func(t *testing.T) {
		b := move()
		b.StrCol(traffic.CloseColumn).AppendStr("I0")
		if _, err := validate.ProcessBatch(b); err != nil {
			t.Fatal(err)
		}
		c := b.Col(traffic.CloseColumn)
		if c.Kind != streams.ColIntList || !slices.Equal(c.List(0), sys.areas.AppendClose(nil, geo.LonLat(b.Col("lon").F[0], b.Col("lat").F[0]))) {
			t.Fatalf("close column %+v, want the stage's stamp", c)
		}
	})
}
