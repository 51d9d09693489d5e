package streams

import (
	"errors"
	"fmt"
	"testing"
)

// TestDeadLetterRingBounded drives more failures through a SkipItem
// process than the ring retains: memory stays bounded at
// maxDeadLetters, the retained letters are the newest ones
// oldest-first, and evictions are charged to the evicting process's
// DeadLettersDropped.
func TestDeadLetterRingBounded(t *testing.T) {
	const total = maxDeadLetters + 300
	alwaysFail := ProcessorFunc(func(it Item) (Item, error) {
		return nil, fmt.Errorf("doomed item %d", intOf(it, "n"))
	})
	top, out := buildLine(t, "worker", numberedItems(total), alwaysFail)
	if err := top.Supervise("worker", SkipItem); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(t.Context()); err != nil {
		t.Fatalf("Run = %v, want nil (SkipItem absorbs failures)", err)
	}
	if out.Len() != 0 {
		t.Fatalf("collected %d items, want 0", out.Len())
	}
	h := top.Health()["worker"]
	if h.Skipped != total {
		t.Errorf("Skipped = %d, want %d", h.Skipped, total)
	}
	if h.DeadLettersDropped != total-maxDeadLetters {
		t.Errorf("DeadLettersDropped = %d, want %d", h.DeadLettersDropped, total-maxDeadLetters)
	}
	dead := top.DeadLetters()
	if len(dead) != maxDeadLetters {
		t.Fatalf("retained %d dead letters, want %d", len(dead), maxDeadLetters)
	}
	// Newest maxDeadLetters items, oldest-first: n = total-max .. total-1,
	// each told apart by the error that condemned it.
	for i, dl := range dead {
		if want := fmt.Sprintf("doomed item %d", total-maxDeadLetters+i); dl.Err == nil || dl.Err.Error() != want {
			t.Fatalf("dead[%d].Err = %v, want %q", i, dl.Err, want)
		}
		if dl.Process != "worker" {
			t.Fatalf("dead[%d].Process = %q", i, dl.Process)
		}
	}
}

// TestDeadLetterRingUnderCap: below the cap nothing is evicted and
// DeadLettersDropped stays zero.
func TestDeadLetterRingUnderCap(t *testing.T) {
	boom := errors.New("boom")
	failOdd := ProcessorFunc(func(it Item) (Item, error) {
		if n := intOf(it, "n"); n%2 == 1 {
			return nil, fmt.Errorf("%w: item %d", boom, n)
		}
		return it, nil
	})
	top, out := buildLine(t, "worker", numberedItems(20), failOdd)
	if err := top.Supervise("worker", SkipItem); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(t.Context()); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 10 {
		t.Errorf("collected %d, want the 10 even items", out.Len())
	}
	h := top.Health()["worker"]
	if h.Skipped != 10 || h.DeadLettersDropped != 0 {
		t.Errorf("Skipped = %d, DeadLettersDropped = %d; want 10, 0", h.Skipped, h.DeadLettersDropped)
	}
	dead := top.DeadLetters()
	if len(dead) != 10 {
		t.Fatalf("retained %d dead letters, want 10", len(dead))
	}
	for i, dl := range dead {
		if want := fmt.Sprintf("boom: item %d", 2*i+1); !errors.Is(dl.Err, boom) || dl.Err.Error() != want {
			t.Fatalf("dead[%d].Err = %v, want %q", i, dl.Err, want)
		}
	}
}
