package crowd

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/insight-dublin/insight/geo"
)

// referenceNearest is the selection by definition: score everyone, sort
// all of them by (distance, ID), keep k.
func referenceNearest(k int, maxMeters float64, candidates []Participant, task geo.Point) []Participant {
	var out []Participant
	for _, p := range candidates {
		if d := geo.Distance(p.Pos, task); maxMeters <= 0 || d <= maxMeters {
			out = append(out, p)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := geo.Distance(out[i].Pos, task), geo.Distance(out[j].Pos, task)
		if di != dj {
			return di < dj
		}
		return out[i].ID < out[j].ID
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// TestSelectNearestMatchesFullSort: random rosters with offline members
// and many exact distance ties (participants sharing a position) select
// the same participants in the same order as the full sort, through the
// roster's cached view.
func TestSelectNearestMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		spots := make([]geo.Point, 1+rng.Intn(6)) // few spots: ties are the rule
		for i := range spots {
			spots[i] = geo.At(53.30+0.1*rng.Float64(), -6.35+0.2*rng.Float64())
		}
		r := NewRoster()
		for _, i := range rng.Perm(n) {
			p := Participant{ID: fmt.Sprintf("p%02d", i), Pos: spots[rng.Intn(len(spots))], Online: rng.Intn(4) > 0}
			if err := r.Register(p); err != nil {
				t.Fatal(err)
			}
		}
		task := spots[rng.Intn(len(spots))]
		k := rng.Intn(8)
		maxMeters := 0.0
		if rng.Intn(3) == 0 {
			maxMeters = 8000 * rng.Float64()
		}
		online := r.Online()
		for i := 1; i < len(online); i++ {
			if online[i-1].ID >= online[i].ID {
				t.Fatalf("trial %d: Online not sorted by ID: %v", trial, online)
			}
		}
		for _, p := range online {
			if !p.Online {
				t.Fatalf("trial %d: offline participant %s in Online()", trial, p.ID)
			}
		}
		want := referenceNearest(k, maxMeters, online, task)
		got := SelectNearest(k, maxMeters)(r.Online(), task)
		if len(got) != len(want) {
			t.Fatalf("trial %d (k=%d, max=%v): selected %d, want %d", trial, k, maxMeters, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d (k=%d, max=%v): position %d is %s, want %s", trial, k, maxMeters, i, got[i].ID, want[i].ID)
			}
		}
	}
}

// TestRosterOnlineView: the view is rebuilt after every mutator and a
// caller scribbling over its slice does not reach the next caller.
func TestRosterOnlineView(t *testing.T) {
	r := NewRoster()
	for _, id := range []string{"c", "a", "b"} {
		if err := r.Register(Participant{ID: id, Pos: geo.At(53.35, -6.26), Online: true}); err != nil {
			t.Fatal(err)
		}
	}
	ids := func(ps []Participant) string {
		s := ""
		for _, p := range ps {
			s += p.ID
		}
		return s
	}
	first := r.Online()
	if ids(first) != "abc" {
		t.Fatalf("Online = %s", ids(first))
	}
	first[0], first[2] = first[2], first[0]
	first[1].ID = "scribble"
	if got := ids(r.Online()); got != "abc" {
		t.Errorf("caller's mutation leaked into the next Online: %s", got)
	}
	if err := update(r, "b", func(p *Participant) { p.Online = false }); err != nil {
		t.Fatal(err)
	}
	if got := ids(r.Online()); got != "ac" {
		t.Errorf("after b went offline: %s", got)
	}
	if err := r.Register(Participant{ID: "0", Online: true}); err != nil {
		t.Fatal(err)
	}
	if got := ids(r.Online()); got != "0ac" {
		t.Errorf("after Register(0): %s", got)
	}
	moved := geo.At(53.40, -6.30)
	if err := update(r, "c", func(p *Participant) { p.Pos = moved }); err != nil {
		t.Fatal(err)
	}
	if on := r.Online(); on[2].Pos != moved {
		t.Errorf("after c moved: %v", on[2])
	}
	if err := update(r, "0", func(p *Participant) { p.Online = false }); err != nil {
		t.Fatal(err)
	}
	if err := update(r, "a", func(p *Participant) { p.Online = false }); err != nil {
		t.Fatal(err)
	}
	if err := update(r, "c", func(p *Participant) { p.Online = false }); err != nil {
		t.Fatal(err)
	}
	if on := r.Online(); on == nil || len(on) != 0 {
		t.Errorf("nobody online: %v", on)
	}
}

// TestRosterOnlineConcurrent races location and connectivity updates
// against readers (run under -race): every snapshot a reader gets is
// ID-sorted and holds only online participants.
func TestRosterOnlineConcurrent(t *testing.T) {
	r := NewRoster()
	const n = 16
	for i := 0; i < n; i++ {
		if err := r.Register(Participant{ID: fmt.Sprintf("p%02d", i), Pos: geo.At(53.35, -6.26), Online: true}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := fmt.Sprintf("p%02d", (i*7+w)%n)
				if err := update(r, id, func(p *Participant) { p.Pos = geo.At(53.30+float64(i%50)/1000, -6.26) }); err != nil {
					t.Error(err)
				}
				if err := update(r, id, func(p *Participant) { p.Online = i%3 != 0 }); err != nil {
					t.Error(err)
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sel := SelectNearest(5, 0)
			for i := 0; i < 500; i++ {
				on := r.Online()
				for j := range on {
					if !on[j].Online || (j > 0 && on[j-1].ID >= on[j].ID) {
						t.Errorf("inconsistent snapshot: %v", on)
						return
					}
				}
				if got := sel(on, geo.At(53.35, -6.26)); len(got) > 5 {
					t.Errorf("selected %d", len(got))
				}
			}
		}()
	}
	wg.Wait()
}

// update re-registers a participant with one field changed: the way a
// location or connectivity update reaches the roster.
func update(r *Roster, id string, change func(*Participant)) error {
	r.mu.RLock()
	p, ok := r.participants[id]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("unknown participant %q", id)
	}
	change(&p)
	return r.Register(p)
}
