package rtec

import (
	"fmt"
	"testing"
)

func shardKeys(n int) []string {
	keys := make([]string, 0, 2*n)
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("bus%04d", i), fmt.Sprintf("s%04d", i))
	}
	return keys
}

func TestRendezvousShardDeterministic(t *testing.T) {
	for _, key := range shardKeys(200) {
		for n := 1; n <= 9; n++ {
			a, b := RendezvousShard(key, n), RendezvousShard(key, n)
			if a != b {
				t.Fatalf("RendezvousShard(%q, %d) unstable: %d vs %d", key, n, a, b)
			}
			if a < 0 || a >= n {
				t.Fatalf("RendezvousShard(%q, %d) = %d out of range", key, n, a)
			}
		}
	}
}

// TestRendezvousShardCoverage: every shard owns part of the key space
// at every shard count the tier supports.
func TestRendezvousShardCoverage(t *testing.T) {
	keys := shardKeys(1000)
	for n := 1; n <= 8; n++ {
		got := make([]int, n)
		for _, key := range keys {
			got[RendezvousShard(key, n)]++
		}
		for i, c := range got {
			if c == 0 {
				t.Errorf("n=%d: shard %d owns no keys out of %d", n, i, len(keys))
			}
		}
	}
}

// TestRendezvousShardMinimalMovement pins the reshard contract: growing
// n→n+1 moves at most 1/n of the keys, and every moved key lands on the
// new shard n.
func TestRendezvousShardMinimalMovement(t *testing.T) {
	keys := shardKeys(2000)
	for n := 1; n <= 8; n++ {
		moved := 0
		for _, key := range keys {
			before, after := RendezvousShard(key, n), RendezvousShard(key, n+1)
			if before == after {
				continue
			}
			if after != n {
				t.Fatalf("n=%d→%d: key %q moved %d→%d, not to the new shard", n, n+1, key, before, after)
			}
			moved++
		}
		if limit := len(keys) / n; moved > limit {
			t.Errorf("n=%d→%d: %d of %d keys moved, want ≤ %d", n, n+1, moved, len(keys), limit)
		}
		if moved == 0 && n < 8 {
			t.Errorf("n=%d→%d: no keys moved to the new shard at all", n, n+1)
		}
	}
}

func TestShardMap(t *testing.T) {
	if _, err := NewShardMap(0); err == nil {
		t.Error("NewShardMap(0) must error")
	}
	if _, err := NewShardMap(-3); err == nil {
		t.Error("NewShardMap(-3) must error")
	}
	m, err := NewShardMap(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range shardKeys(100) {
		if got, want := m.Shard(key), RendezvousShard(key, 4); got != want {
			t.Fatalf("Shard(%q) = %d, want rendezvous %d", key, got, want)
		}
	}

	// An override redirects exactly the pinned key.
	key := "bus0001"
	native := RendezvousShard(key, 4)
	to := (native + 1) % 4
	if err := m.SetOverride(key, to); err != nil {
		t.Fatal(err)
	}
	if got := m.Shard(key); got != to {
		t.Fatalf("overridden Shard(%q) = %d, want %d", key, got, to)
	}
	if got := m.Shard("bus0002"); got != RendezvousShard("bus0002", 4) {
		t.Fatal("override leaked to another key")
	}
	ovs := m.Overrides()
	if len(ovs) != 1 || ovs[0].Key != key || ovs[0].Shard != to {
		t.Fatalf("Overrides() = %v", ovs)
	}

	// Pinning back to the native shard removes the override.
	if err := m.SetOverride(key, native); err != nil {
		t.Fatal(err)
	}
	if len(m.Overrides()) != 0 {
		t.Fatalf("native-shard override not removed: %v", m.Overrides())
	}
	if got := m.Shard(key); got != native {
		t.Fatalf("Shard(%q) = %d after override removal, want %d", key, got, native)
	}

	// Out-of-range overrides are rejected.
	if err := m.SetOverride(key, 4); err == nil {
		t.Error("SetOverride(4) on a 4-shard map must error")
	}
	if err := m.SetOverride(key, -1); err == nil {
		t.Error("SetOverride(-1) must error")
	}
}

// FuzzShardAssign is the property pin for the assignment function:
// determinism, range safety, and minimal movement (a key either stays
// put on reshard n→n+1 or lands on the new shard n).
func FuzzShardAssign(f *testing.F) {
	f.Add("bus0001", uint8(4))
	f.Add("", uint8(1))
	f.Add("s0042", uint8(7))
	f.Add("a\x00b", uint8(2))
	f.Fuzz(func(t *testing.T, key string, rawN uint8) {
		n := int(rawN)%8 + 1
		got := RendezvousShard(key, n)
		if got < 0 || got >= n {
			t.Fatalf("RendezvousShard(%q, %d) = %d out of range", key, n, got)
		}
		if again := RendezvousShard(key, n); again != got {
			t.Fatalf("RendezvousShard(%q, %d) unstable: %d vs %d", key, n, got, again)
		}
		next := RendezvousShard(key, n+1)
		if next != got && next != n {
			t.Fatalf("reshard %d→%d moved %q from %d to %d (minimal movement violated)", n, n+1, key, got, next)
		}
	})
}
