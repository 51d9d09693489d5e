package rtec

import (
	"strings"
	"testing"
)

// Satellite coverage for the Partitioned constructor and routing error
// paths: every invalid input must surface as a descriptive error, never
// a downstream panic, and a routing failure must not corrupt the
// partitions that already accepted rows.

func TestNewPartitionedValidation(t *testing.T) {
	defs := onOffDefs(t)
	assign := byEvent(func(Event) int { return 0 })

	cases := []struct {
		name    string
		defs    *Definitions
		opts    Options
		n       int
		assign  func(*Block) func(int) int
		wantSub string
	}{
		{"zero partitions", defs, Options{WorkingMemory: 10}, 0, assign, "partition count must be positive"},
		{"negative partitions", defs, Options{WorkingMemory: 10}, -2, assign, "partition count must be positive"},
		{"nil assign", defs, Options{WorkingMemory: 10}, 2, nil, "nil partition function"},
		{"nil definitions", nil, Options{WorkingMemory: 10}, 2, assign, "nil definitions"},
		{"bad engine options", defs, Options{WorkingMemory: -5}, 2, assign, "working memory must be positive"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewPartitioned(tc.defs, tc.opts, tc.n, tc.assign)
			if err == nil {
				t.Fatalf("NewPartitioned accepted invalid input, got %v", p)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestPartitionedInputRoutingErrors(t *testing.T) {
	defs := onOffDefs(t)

	// Per-event routing: out-of-range assignments in both directions.
	for _, bad := range []int{-1, 2, 99} {
		p, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, byEvent(func(Event) int { return bad }))
		if err != nil {
			t.Fatal(err)
		}
		if err := inputEvents(p, ev("on", 1, "x")); err == nil {
			t.Errorf("assign→%d: InputCut must error", bad)
		} else if !strings.Contains(err.Error(), "invalid partition") {
			t.Errorf("assign→%d: error %q does not mention the invalid partition", bad, err)
		}
	}

	// A routing failure mid-cut reports the error without panicking,
	// and the cut is refused whole: the valid event before it is not
	// filed either.
	p, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, byEvent(func(e Event) int {
		if e.Key == "poison" {
			return 7
		}
		return 0
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := inputEvents(p, ev("on", 1, "good"), ev("on", 2, "poison")); err == nil {
		t.Fatal("poisoned cut must error")
	}
	res, err := p.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if got := MergeResults(res); got.Stats.InputEvents != 0 {
		t.Fatalf("a refused cut filed events: InputEvents = %d, want 0", got.Stats.InputEvents)
	}
}

func TestPartitionedBlockRoutingErrors(t *testing.T) {
	defs := onOffDefs(t)
	blk := &Block{Type: "on", Times: []int64{5, 6}, Keys: []string{"a", "b"}}

	p, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, byEvent(func(Event) int { return -3 }))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.InputCut([]BlockRun{{Block: blk}}); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Errorf("InputCut with out-of-range assign: err = %v", err)
	}
	if _, err := p.InputCut([]BlockRun{{Block: blk, Rows: []int32{1}}}); err == nil {
		t.Error("InputCut with out-of-range assign must error")
	}

	// A cut whose last run misroutes a row is refused whole: no engine
	// files the runs before it.
	p1, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, byEvent(func(ev Event) int {
		if ev.Key == "b" {
			return 2
		}
		return 1
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p1.InputCut([]BlockRun{{Block: blk, Rows: []int32{0}}, {Block: blk}}); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Errorf("InputCut misrouting its last run: err = %v", err)
	}
	res, err := p1.Query(10)
	if err != nil {
		t.Fatal(err)
	}
	if n := MergeResults(res).Stats.InsertedRows; n != 0 {
		t.Errorf("a refused cut filed %d rows", n)
	}

	// A block router that disagrees with the range contract is caught
	// per row as well.
	p2, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 2, func(*Block) func(int) int {
		return func(int) int { return 5 }
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p2.InputCut([]BlockRun{{Block: blk}}); err == nil || !strings.Contains(err.Error(), "invalid partition") {
		t.Errorf("InputCut with out-of-range block router: err = %v", err)
	}
}

func TestPartitionedRestoreCountMismatch(t *testing.T) {
	defs := onOffDefs(t)
	p, err := NewPartitioned(defs, Options{WorkingMemory: 100}, 3, byEvent(func(Event) int { return 0 }))
	if err != nil {
		t.Fatal(err)
	}
	snaps, err := p.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 3 {
		t.Fatalf("Snapshot returned %d snapshots, want 3", len(snaps))
	}
	if err := p.Restore(snaps[:2]); err == nil || !strings.Contains(err.Error(), "2 snapshots for 3 partitions") {
		t.Errorf("short restore: err = %v", err)
	}
	if err := p.Restore(append(append([]*EngineSnapshot{}, snaps...), snaps[0])); err == nil {
		t.Error("long restore must error")
	}
	if err := p.Restore(snaps); err != nil {
		t.Errorf("exact restore failed: %v", err)
	}
}

// inputEvents files attribute-free events through the tier's one
// entrance, InputCut: a one-row run per event, in order.
func inputEvents(p *Partitioned, evs ...Event) error {
	cut := make([]BlockRun, len(evs))
	for i, e := range evs {
		cut[i] = BlockRun{Block: &Block{Type: e.Type, Times: []int64{int64(e.Time)}, Keys: []string{e.Key}}}
	}
	_, err := p.InputCut(cut)
	return err
}

// byEvent routes a block's rows by their view Events.
func byEvent(assign func(Event) int) func(*Block) func(int) int {
	return func(b *Block) func(int) int {
		return func(r int) int { return assign(b.Event(r)) }
	}
}
