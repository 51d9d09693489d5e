package rtec

import "sort"

// Column append paths of the resident column store. The segment's
// columns must all stay exactly rowCount long: every insert appends
// one cell to every resident column (a packed value, or a zero plus an
// absent mark when the event lacks the attribute), and attributes the
// segment has not seen yet open a new column whose earlier rows are
// backfilled absent. Events of one type normally share an attribute
// schema, so the masks and the boxed fallback column exist for
// correctness, not for the hot path: homogeneous blocks append with no
// Present mask at all.

// colLen returns the column's cell count.
func colLen(c *BCol) int {
	switch c.Kind {
	case ColFloat:
		return len(c.F)
	case ColInt:
		return len(c.I)
	case ColBool:
		return len(c.B)
	case ColIntGo:
		return len(c.N)
	case ColAny:
		return len(c.A)
	case ColIntList:
		return len(c.Ends)
	default:
		return len(c.SIdx)
	}
}

// cellValue is the Event.Get backend: the boxed value of one cell and
// whether it is present (never, in a nil column).
func cellValue(c *BCol, row int) (any, bool) {
	if c == nil || !c.present(row) {
		return nil, false
	}
	switch c.Kind {
	case ColFloat:
		return c.F[row], true
	case ColInt:
		return c.I[row], true
	case ColBool:
		return c.B[row], true
	case ColIntGo:
		return c.N[row], true
	case ColAny:
		return c.A[row], true
	case ColIntList:
		return c.list(row), true
	default:
		return c.Dict[c.SIdx[row]], true
	}
}

// ensurePresent materialises the Present mask as all-true over the
// first n cells (the column so far had a value on every row).
func (c *BCol) ensurePresent(n int) {
	if c.Present != nil {
		return
	}
	c.Present = make([]bool, n)
	for i := range c.Present {
		c.Present[i] = true
	}
}

// appendPresent marks the freshly appended cell present, if the column
// tracks presence at all.
func (c *BCol) appendPresent() {
	if c.Present != nil {
		c.Present = append(c.Present, true)
	}
}

// growCells makes room for n more cells in the column's value slice
// and, if the column tracks presence, its Present mask (an int-list
// column's flat values grow with its cells).
func (c *BCol) growCells(n int) {
	if c.Present != nil {
		c.Present = grown(c.Present, n)
	}
	switch c.Kind {
	case ColFloat:
		c.F = grown(c.F, n)
	case ColInt:
		c.I = grown(c.I, n)
	case ColBool:
		c.B = grown(c.B, n)
	case ColIntGo:
		c.N = grown(c.N, n)
	case ColAny:
		c.A = grown(c.A, n)
	case ColIntList:
		c.Ends = grown(c.Ends, n)
	default:
		c.SIdx = grown(c.SIdx, n)
	}
}

// appendZero appends the kind's zero cell (only meaningful together
// with an absent mark).
func (c *BCol) appendZero() {
	switch c.Kind {
	case ColFloat:
		c.F = append(c.F, 0)
	case ColInt:
		c.I = append(c.I, 0)
	case ColBool:
		c.B = append(c.B, false)
	case ColIntGo:
		c.N = append(c.N, 0)
	case ColAny:
		c.A = append(c.A, nil)
	case ColIntList:
		c.Ends = append(c.Ends, uint32(len(c.L)))
	default:
		c.SIdx = append(c.SIdx, 0)
	}
}

// internStr interns a value in the column dictionary, building the
// lookup map lazily (restored and compacted columns rebuild it on
// first use).
func (c *BCol) internStr(v string) uint32 {
	if c.dict == nil {
		c.dict = make(map[string]uint32, len(c.Dict))
		for i, s := range c.Dict {
			c.dict[s] = uint32(i)
		}
	}
	if si, ok := c.dict[v]; ok {
		return si
	}
	si := uint32(len(c.Dict))
	c.dict[v] = si
	c.Dict = append(c.Dict, v)
	return si
}

// promoteToAny re-boxes a packed column whose rows turned out to mix
// value types. Rare by construction; presence marks carry over.
func (c *BCol) promoteToAny(n int) {
	a := make([]any, n)
	for i := 0; i < n; i++ {
		if v, ok := cellValue(c, i); ok {
			a[i] = v
		}
	}
	c.Kind = ColAny
	c.A = a
	c.F, c.I, c.B, c.N, c.SIdx, c.Dict, c.dict, c.Ends, c.L = nil, nil, nil, nil, nil, nil, nil, nil, nil
}

// appendCell appends one cell: the value if the event carries the
// attribute (promoting the column on a kind mismatch), an absent zero
// otherwise. prior is the cell count before this append.
func (c *BCol) appendCell(v any, ok bool, prior int) {
	if !ok {
		c.ensurePresent(prior)
		c.Present = append(c.Present, false)
		c.appendZero()
		return
	}
	switch c.Kind {
	case ColFloat:
		if f, is := v.(float64); is {
			c.F = append(c.F, f)
			c.appendPresent()
			return
		}
	case ColInt:
		if i, is := v.(int64); is {
			c.I = append(c.I, i)
			c.appendPresent()
			return
		}
	case ColBool:
		if b, is := v.(bool); is {
			c.B = append(c.B, b)
			c.appendPresent()
			return
		}
	case ColIntGo:
		if i, is := v.(int); is {
			c.N = append(c.N, i)
			c.appendPresent()
			return
		}
	case ColStr:
		if s, is := v.(string); is {
			c.SIdx = append(c.SIdx, c.internStr(s))
			c.appendPresent()
			return
		}
	case ColIntList:
		if l, is := v.([]int32); is {
			c.L = append(c.L, l...)
			c.Ends = append(c.Ends, uint32(len(c.L)))
			c.appendPresent()
			return
		}
	case ColAny:
		c.A = append(c.A, v)
		c.appendPresent()
		return
	}
	c.promoteToAny(prior)
	c.A = append(c.A, v)
	c.appendPresent()
}

// newColFor opens a column for an attribute first seen on row prior:
// the kind matches the value's boxed type, earlier rows are backfilled
// absent.
func newColFor(name string, v any, prior int) BCol {
	c := BCol{Name: name}
	switch v.(type) {
	case float64:
		c.Kind = ColFloat
		c.F = make([]float64, prior)
	case int64:
		c.Kind = ColInt
		c.I = make([]int64, prior)
	case int:
		c.Kind = ColIntGo
		c.N = make([]int, prior)
	case bool:
		c.Kind = ColBool
		c.B = make([]bool, prior)
	case string:
		c.Kind = ColStr
		c.SIdx = make([]uint32, prior)
	case []int32:
		c.Kind = ColIntList
		c.Ends = make([]uint32, prior)
	default:
		c.Kind = ColAny
		c.A = make([]any, prior)
	}
	if prior > 0 {
		c.Present = make([]bool, prior) // all absent so far
	}
	c.appendCell(v, true, prior)
	return c
}

// appendAttrs appends the freshly added row's attribute cells: one per
// resident column, plus new columns for attributes the segment has not
// seen. The event may be map-backed or a view — both read through the
// accessors.
func (sg *colSeg) appendAttrs(ev Event) {
	prior := len(sg.blk.Times) - 1
	for ci := range sg.blk.Cols {
		c := &sg.blk.Cols[ci]
		v, ok := ev.Get(c.Name)
		c.appendCell(v, ok, prior)
	}
	for _, name := range newAttrNames(ev, &sg.blk) {
		v, _ := ev.Get(name)
		sg.blk.Cols = append(sg.blk.Cols, newColFor(name, v, prior))
	}
}

// newAttrNames lists the event's attribute names with no resident
// column yet, in a deterministic order (sorted for map events, column
// order for views) so the segment layout is run-stable.
func newAttrNames(ev Event, blk *Block) []string {
	var out []string
	if ev.blk != nil {
		for ci := range ev.blk.Cols {
			c := &ev.blk.Cols[ci]
			if c.present(int(ev.row)) && blk.colIndex(c.Name) < 0 {
				out = append(out, c.Name)
			}
		}
		return out
	}
	for name := range ev.Attrs {
		if blk.colIndex(name) < 0 {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// appendCols bulk-appends the given source rows to the resident
// columns, matching columns by name: same-kind columns append packed
// (string columns translate dictionary ids lazily, one interning per
// distinct value used), mismatches promote to the boxed column, source
// columns the segment lacks open backfilled, and resident columns the
// source lacks get absent cells. rows gather from src; the times for
// the new rows must already be appended.
func (sg *colSeg) appendCols(src *Block, rows []int32) {
	rowCount := len(sg.blk.Times)
	prior := rowCount - len(rows)
	for si := range src.Cols {
		sc := &src.Cols[si]
		ci := sg.blk.colIndex(sc.Name)
		if ci < 0 {
			sg.blk.Cols = append(sg.blk.Cols, newColFrom(sc, rows, prior))
			continue
		}
		sg.blk.Cols[ci].appendFrom(sc, rows)
	}
	for ci := range sg.blk.Cols {
		c := &sg.blk.Cols[ci]
		if n := colLen(c); n < rowCount {
			c.ensurePresent(n)
			c.growCells(rowCount - n)
			for ; n < rowCount; n++ {
				c.Present = append(c.Present, false)
				c.appendZero()
			}
		}
	}
}

// newColFrom opens a resident column for a source column first seen at
// row prior, backfilling earlier rows absent.
func newColFrom(sc *BCol, rows []int32, prior int) BCol {
	c := BCol{Name: sc.Name, Kind: sc.Kind}
	switch sc.Kind {
	case ColFloat:
		c.F = make([]float64, prior, prior+len(rows))
	case ColInt:
		c.I = make([]int64, prior, prior+len(rows))
	case ColBool:
		c.B = make([]bool, prior, prior+len(rows))
	case ColIntGo:
		c.N = make([]int, prior, prior+len(rows))
	case ColAny:
		c.A = make([]any, prior, prior+len(rows))
	case ColIntList:
		c.Ends = make([]uint32, prior, prior+len(rows))
	default:
		c.SIdx = make([]uint32, prior, prior+len(rows))
	}
	if prior > 0 {
		c.Present = make([]bool, prior, prior+len(rows)) // all absent so far
	}
	c.appendFrom(sc, rows)
	return c
}

// appendFrom appends the source rows' cells to the column, growing
// each of its slices at most once.
func (c *BCol) appendFrom(sc *BCol, rows []int32) {
	if c.Kind != sc.Kind && c.Kind != ColAny {
		c.promoteToAny(colLen(c))
	}
	if sc.Present != nil && c.Kind != ColAny {
		c.ensurePresent(colLen(c))
	}
	c.growCells(len(rows))
	if c.Kind == ColAny {
		for _, r := range rows {
			v, ok := cellValue(sc, int(r))
			if !ok {
				c.ensurePresent(len(c.A))
				c.Present = append(c.Present, false)
				c.A = append(c.A, nil)
				continue
			}
			c.A = append(c.A, v)
			c.appendPresent()
		}
		return
	}
	switch c.Kind {
	case ColFloat:
		for _, r := range rows {
			c.F = append(c.F, sc.F[r])
		}
	case ColInt:
		for _, r := range rows {
			c.I = append(c.I, sc.I[r])
		}
	case ColBool:
		for _, r := range rows {
			c.B = append(c.B, sc.B[r])
		}
	case ColIntGo:
		for _, r := range rows {
			c.N = append(c.N, sc.N[r])
		}
	case ColIntList:
		cells := 0
		for _, r := range rows {
			cells += len(sc.list(int(r)))
		}
		c.L = grown(c.L, cells)
		for _, r := range rows {
			c.L = append(c.L, sc.list(int(r))...)
			c.Ends = append(c.Ends, uint32(len(c.L)))
		}
	default: // ColStr: translate dictionary ids lazily
		const unset = ^uint32(0)
		var tr []uint32
		for _, r := range rows {
			if sc.Present != nil && !sc.Present[r] {
				c.SIdx = append(c.SIdx, 0)
				continue
			}
			si := sc.SIdx[r]
			if tr == nil {
				tr = make([]uint32, len(sc.Dict))
				for i := range tr {
					tr[i] = unset
				}
			}
			if tr[si] == unset {
				tr[si] = c.internStr(sc.Dict[si])
			}
			c.SIdx = append(c.SIdx, tr[si])
		}
	}
	if c.Present != nil {
		if sc.Present == nil {
			for range rows {
				c.Present = append(c.Present, true)
			}
		} else {
			for _, r := range rows {
				c.Present = append(c.Present, sc.Present[r])
			}
		}
	}
}
