package rtec

// Columnar SDE ingestion. The transport layer moves batches of
// same-typed events as struct-of-arrays blocks; instead of decoding
// each row into an attribute map before insertion, the engine copies
// the admitted rows into an owned Block and files lightweight view
// Events whose accessors read the columns directly. The store, the
// window machinery and every CE definition see ordinary Events — the
// view is behaviourally identical to a map-backed event with the same
// attributes (accessor coercions included) — but ingestion performs a
// handful of slice copies per block rather than one map allocation plus
// per-attribute boxing per event.

// ColKind is the value type of one block column.
type ColKind uint8

const (
	// ColFloat is a float64 column.
	ColFloat ColKind = iota
	// ColInt is an int64 column.
	ColInt
	// ColBool is a bool column.
	ColBool
	// ColStr is a dictionary-encoded string column.
	ColStr
	// ColIntGo is a Go int column. The resident column store keeps it
	// distinct from ColInt so a columnarised map event returns the
	// exact boxed type the original did from Event.Get.
	ColIntGo
	// ColAny is a boxed fallback column for rows whose attribute
	// values mix types (or use a type no packed column covers). Only
	// the resident column store produces it.
	ColAny
	// ColIntList is a column of int32 lists: row i holds
	// L[Ends[i-1]:Ends[i]] (from 0 for row 0). Its boxed form, in a
	// map-backed event and through Event.Get, is a []int32.
	ColIntList
)

// BCol is one named attribute column of a Block. Exactly one data
// slice is populated, according to Kind; string columns carry per-row
// indexes into the small Dict table of distinct values.
//
// Present optionally marks which rows carry the attribute at all; a
// nil Present means every row does (the only case the transport layer
// produces). The resident column store uses the mask when events of
// one type disagree on their attribute sets.
type BCol struct {
	Name string
	Kind ColKind

	F       []float64
	I       []int64
	B       []bool
	SIdx    []uint32
	Dict    []string
	N       []int    // ColIntGo
	A       []any    // ColAny
	Ends    []uint32 // ColIntList: per-row end offsets into L
	L       []int32  // ColIntList: every row's values, back to back
	Present []bool

	// dict indexes Dict for find-or-add interning; only the resident
	// column store maintains it (nil on transport blocks).
	//state:derived interning index over Dict, rebuilt on append
	dict map[string]uint32
}

// present reports whether the attribute is set on row.
func (c *BCol) present(row int) bool {
	return c.Present == nil || c.Present[row]
}

// list returns row's values of a ColIntList column, aliasing L.
func (c *BCol) list(row int) []int32 {
	start := uint32(0)
	if row > 0 {
		start = c.Ends[row-1]
	}
	return c.L[start:c.Ends[row]]
}

// Block is a columnar batch of same-typed SDEs: occurrence times and
// entity keys in flat slices, one BCol per attribute, all of equal
// length. Times is []int64 rather than []Time so transport batches
// (whose flat slices are untyped int64) convert without copying.
// Blocks handed to InputBlockRows are read-only from the engine's
// perspective; the engine copies what it keeps, so the caller may
// recycle the block immediately after the call returns.
type Block struct {
	Type  string
	Times []int64
	// Keys is the transport representation; resident store segments
	// keep it nil and key rows through KIdx/KDict instead (see
	// colSeg), so the restore path rebuilds the dictionary form.
	//state:derived transport form of KIdx/KDict; nil on resident segments
	Keys []string
	Cols []BCol

	// KIdx/KDict optionally dictionary-encode Keys (KIdx[i] indexes
	// KDict, one entry per row when present). The store uses them to
	// group rows by entity key with small-integer ids instead of
	// hashing the key string per row; both may be nil, the key strings
	// in Keys stay authoritative either way. KDict entries must be
	// stable for the duration of the InputBlockRows call — the engine only
	// reads them transiently during insertion.
	KIdx  []uint32
	KDict []string
}

// Len returns the number of rows.
func (b *Block) Len() int { return len(b.Times) }

// Key returns the entity key of row i. The resident column store
// keeps Keys nil and encodes every key through KIdx/KDict; transport
// blocks always populate Keys.
func (b *Block) Key(i int) string {
	if b.Keys == nil {
		return b.KDict[b.KIdx[i]]
	}
	return b.Keys[i]
}

// Event returns the view event of row i: an Event whose attribute
// accessors read b's columns. The view is valid for as long as the
// block is; the engine only builds views over blocks it owns.
func (b *Block) Event(i int) Event {
	return Event{Type: b.Type, Time: Time(b.Times[i]), Key: b.Key(i), blk: b, row: int32(i)}
}

// Column returns the named attribute column, or nil if the block does
// not carry it. The pointer is into b's Cols slice and is valid while
// the block is.
func (b *Block) Column(name string) *BCol {
	ci := b.colIndex(name)
	if ci < 0 {
		return nil
	}
	return &b.Cols[ci]
}

func (b *Block) colIndex(name string) int {
	for i := range b.Cols {
		if b.Cols[i].Name == name {
			return i
		}
	}
	return -1
}

// The cell functions below are the one implementation of the
// accessors' coercions: Event's accessors over a block and Rows.Col's
// handle call them on a resolved column, and a boxed value — a
// map-backed event's attribute or a ColAny cell — goes through the
// same floatOf and intOf. A nil column is an absent attribute.

// floatAt reads a cell as Event.Float does: float64 and integer cells
// convert; strings and bools don't.
func (c *BCol) floatAt(row int) (float64, bool) {
	if c == nil || !c.present(row) {
		return 0, false
	}
	switch c.Kind {
	case ColFloat:
		return c.F[row], true
	case ColInt:
		return float64(c.I[row]), true
	case ColIntGo:
		return float64(c.N[row]), true
	case ColAny:
		return floatOf(c.A[row])
	}
	return 0, false
}

// intAt reads a cell as Event.Int does (floats truncate).
func (c *BCol) intAt(row int) (int64, bool) {
	if c == nil || !c.present(row) {
		return 0, false
	}
	switch c.Kind {
	case ColInt:
		return c.I[row], true
	case ColFloat:
		return int64(c.F[row]), true
	case ColIntGo:
		return int64(c.N[row]), true
	case ColAny:
		return intOf(c.A[row])
	}
	return 0, false
}

func (c *BCol) strAt(row int) (string, bool) {
	if c == nil || !c.present(row) {
		return "", false
	}
	switch c.Kind {
	case ColStr:
		return c.Dict[c.SIdx[row]], true
	case ColAny:
		v, ok := c.A[row].(string)
		return v, ok
	}
	return "", false
}

// listAt accepts only the list kind (a boxed []int32 in a ColAny
// column).
func (c *BCol) listAt(row int) ([]int32, bool) {
	if c == nil || !c.present(row) {
		return nil, false
	}
	switch c.Kind {
	case ColIntList:
		return c.list(row), true
	case ColAny:
		v, ok := c.A[row].([]int32)
		return v, ok
	}
	return nil, false
}

func (c *BCol) boolAt(row int) (bool, bool) {
	if c == nil || !c.present(row) {
		return false, false
	}
	switch c.Kind {
	case ColBool:
		return c.B[row], true
	case ColAny:
		v, ok := c.A[row].(bool)
		return v, ok
	}
	return false, false
}

// floatOf coerces a boxed value for Float: float64 and the integer
// types convert.
func floatOf(v any) (float64, bool) {
	switch v := v.(type) {
	case float64:
		return v, true
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	}
	return 0, false
}

// intOf coerces a boxed value for Int: floats truncate.
func intOf(v any) (int64, bool) {
	switch v := v.(type) {
	case int64:
		return v, true
	case int:
		return int64(v), true
	case float64:
		return int64(v), true
	}
	return 0, false
}
