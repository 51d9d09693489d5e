// Package hafix exercises the hotalloc batch-path scoping of the root
// package. It is loaded under the import path "fixture/insight", so
// the admission method admit and ProcessBatch form the batch path: no
// per-row Event view or attribute map between the transport batches and
// the engines.
package hafix

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

// drain is not a batch-path function: the same pattern passes.
func (a *admission) drain() {
	for _, r := range a.rows {
		_ = a.blk.Event(int(r))
	}
}
