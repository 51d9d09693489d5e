// Package fixture exercises the snapshotdrift analyzer: a two-sided
// Snapshot/Restore pair with drifting fields, a nested carrier struct,
// a snapshot-only struct, //state: annotations and a suppressed
// finding.
package fixture

// box is a snapshot-paired struct covering every drift outcome.
type box struct {
	kept    int // serialized and restored: clean
	lost    int // never serialized nor restored: finding (both sides)
	halfOut int // serialized but not rebuilt: finding (restore side)
	halfIn  int // rebuilt but not serialized: finding (snapshot side)

	// cache is recomputed from kept on first use after a restore.
	//state:derived recomputed on demand
	cache map[int]int

	scratch []byte //state:transient reusable buffer

	inner part
}

// part is a carrier struct reached through box.inner: the pair's
// closures must account for its fields too.
type part struct {
	a int
	b int
	c int // never read by encodePart: finding (snap side; the wholesale
	// assignment b.inner = restorePart(s) zeroes it, which counts as a
	// rebuild)
}

// boxSnap is the serialized form, reached through Snapshot's result
// type.
type boxSnap struct {
	Kept  int
	Extra int // written by Snapshot, never read on restore: finding
	A, B  int
}

func (b *box) Snapshot() *boxSnap {
	s := &boxSnap{Kept: b.kept, Extra: 1}
	b.encodePart(s)
	_ = b.halfOut
	return s
}

func (b *box) encodePart(s *boxSnap) {
	s.A, s.B = b.inner.a, b.inner.b
}

func (b *box) Restore(s *boxSnap) {
	b.kept = s.Kept
	b.halfIn = 0
	b.cache = nil
	b.inner = restorePart(s)
}

func restorePart(s *boxSnap) part {
	return part{a: s.A, b: s.B}
}

// ring has a snapshot method but no restore pair: uncaptured fields
// need a //state: annotation rather than a restore-side account.
type ring struct {
	seen []int
	drop int // not captured: finding (one-sided)
	n    int //state:transient run-scoped counter
}

func (r *ring) snapshot() []int { return append([]int(nil), r.seen...) }

// quiet drifts deliberately under a lint suppression.
type quiet struct {
	x int
	y int //lint:allow snapshotdrift fixture: drift is the point of this field
}

func (q *quiet) Snapshot() int { return q.x }

func (q *quiet) Restore(v int) { q.x = v }

// wholesale's snapshot copies the carrier by value: every carrier
// field counts as captured without being named.
type wholesale struct {
	blobs map[string]blob
}

type blob struct {
	A int
	B string
}

func (w *wholesale) Snapshot() map[string]blob {
	out := make(map[string]blob, len(w.blobs))
	for k, v := range w.blobs {
		out[k] = v
	}
	return out
}

func (w *wholesale) Restore(m map[string]blob) {
	w.blobs = make(map[string]blob, len(m))
	for k, v := range m {
		w.blobs[k] = v
	}
}

// frame pairs the append-style binary codec names: AppendBinary is a
// snapshot side, UnmarshalBinary its restore side.
type frame struct {
	seq  int
	skip int
}

func (f *frame) AppendBinary(dst []byte) ([]byte, error) {
	return append(dst, byte(f.seq)), nil
}

func (f *frame) UnmarshalBinary(data []byte) error {
	f.seq, f.skip = int(data[0]), 0
	return nil
}
