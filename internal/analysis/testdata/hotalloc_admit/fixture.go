// Package hafix exercises the hotalloc batch-path scoping of the root
// package. It is loaded under the import path "fixture/insight", so
// the admission method admit, the tier's filing entrance InputCut,
// ProcessBatch, the boundary step fireDue and the sharded tier's fold
// loops form the batch path: no per-row Event view or attribute map
// between the transport batches and the engines, nor between the
// shards' results and the merged one. holdingKeys, the report's CE
// set builder, is a per-call function: no allocation in its loops and
// no reflective sort.
package hafix

import "sort"

// Event mirrors the engine's event record.
type Event struct{ Key string }

// Block is a minimal ingestion block.
type Block struct{ Keys []string }

// Event rebuilds the view of one row. Defining it is fine — only
// calling it per row inside a batch loop is flagged.
func (b *Block) Event(i int) Event { return Event{Key: b.Keys[i]} }

type admission struct {
	rows []int32
	blk  *Block
}

// admit is the one routine rows reach the engines through: the per-row
// view and the per-row attribute map are both flagged.
func (a *admission) admit() int {
	fed := 0
	for _, r := range a.rows {
		ev := a.blk.Event(int(r))
		attrs := map[string]any{"key": ev.Key}
		_ = attrs
		fed++
	}
	return fed
}

type processor struct{ adm admission }

// ProcessBatch stays on the batch path.
func (p *processor) ProcessBatch(b *Block) {
	for i := range b.Keys {
		_ = b.Event(i)
	}
}

// fireDue is the boundary step: admission, evaluation and the crowd
// rounds of each due boundary, in that order. A view Event per admitted
// row there is flagged like anywhere else on the path.
func (p *processor) fireDue(due []int) {
	for range due {
		p.adm.admit()
		for _, r := range p.adm.rows {
			_ = p.adm.blk.Event(int(r))
		}
	}
}

type tier struct{ areas []string }

// InputCut is the tier's one filing entrance: routing a cut's rows by
// their view Event is flagged.
func (t *tier) InputCut(cut []*Block) int {
	n := 0
	for _, b := range cut {
		for i := range b.Keys {
			n += len(b.Event(i).Key)
		}
	}
	return n
}

// foldBusCongestion is the tier's cross-shard fold: a map built per
// area inside its loop is flagged.
func (t *tier) foldBusCongestion() int {
	n := 0
	for _, a := range t.areas {
		periods := map[string]int{a: 1}
		n += len(periods)
	}
	return n
}

// foldFresh walks every shard's fresh events: no per-event view.
func (t *tier) foldFresh(b *Block) {
	for i := range b.Keys {
		_ = b.Event(i)
	}
}

// drain is not a batch-path function: the same pattern passes.
func (a *admission) drain() {
	for _, r := range a.rows {
		_ = a.blk.Event(int(r))
	}
}

// holdingKeys grows its result per holding instance and sorts it
// through reflection: both are flagged.
func holdingKeys(holds map[string]bool) []string {
	var out []string
	for k, h := range holds {
		if h {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
