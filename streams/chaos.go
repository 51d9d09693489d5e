package streams

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// Chaos injection. Urban sensor feeds drop, delay, duplicate and stall
// in the field (the paper's mediators exist precisely to absorb this);
// the chaos wrappers reproduce those faults deterministically so the
// fault-tolerance layer can be exercised in tests and benchmarks. All
// randomness is drawn from a seeded generator: the same FaultSpec over
// the same input yields the same faulted stream, run after run.

// ErrInjected is the root of every error a ChaosProcessor injects;
// match it with errors.Is.
var ErrInjected = errors.New("streams: injected chaos fault")

// FaultSpec configures deterministic fault injection for a
// ChaosSource or ChaosProcessor. The zero value injects nothing.
type FaultSpec struct {
	// Seed drives all sampling. Same seed, same faults.
	Seed int64

	// DropProb is the probability an item is silently lost.
	DropProb float64
	// DupProb is the probability an item is delivered twice.
	DupProb float64
	// DelayProb is the probability an item is held back and
	// re-delivered out of order, after 1..DelayMax subsequent reads.
	DelayProb float64
	// DelayMax bounds the reorder distance (default 8).
	DelayMax int

	// StallAfter > 0 silences the source after it has produced that
	// many items: a stalled mediator. Items arriving during the stall
	// are buffered (the mediator's backlog).
	StallAfter int
	// StallFor is the length of the stall in swallowed items; once it
	// elapses the backlog floods out ahead of new items (a reconnecting
	// mediator delivering late SDEs). 0 means the source never
	// recovers: the backlog is lost and the stream ends silently —
	// a dead region.
	StallFor int

	// ErrProb is the probability a ChaosProcessor fails an item with
	// ErrInjected instead of processing it.
	ErrProb float64
}

// ForStream derives the per-stream child spec: the same fault
// probabilities with a seed mixed from the parent seed and the stream
// id. Stacked chaos wrappers (a ChaosSource under a PacedSource, a
// ChaosProcessor downstream) each consume their own stream's generator,
// so the drop/dup/delay sequence a stream experiences depends only on
// (parent seed, stream id, its own read order) — never on how the
// scheduler interleaves the other streams' reads against it.
func (s FaultSpec) ForStream(id string) FaultSpec {
	// FNV-1a over the id, xor-folded with the parent seed, finished
	// with the splitmix64 mixer so near-identical ids ("scats-north",
	// "scats-south") land in unrelated generator states.
	h := uint64(14695981039346656037)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= 1099511628211
	}
	h ^= uint64(s.Seed)
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	s.Seed = int64(h)
	return s
}

// ChaosStats counts the faults a wrapper has injected so far.
type ChaosStats struct {
	Dropped    int // items lost to DropProb
	Duplicated int // extra deliveries from DupProb
	Delayed    int // items re-ordered by DelayProb
	Stalled    int // items swallowed or buffered by the stall window
	Errors     int // errors injected (ChaosProcessor only)
}

type heldItem struct {
	it  Item
	due int // remaining reads before release
}

// ChaosSource wraps a Source and injects the faults of its spec. It is
// safe for the single-reader use the topology gives sources; a mutex
// guards stats for concurrent Stats calls.
type ChaosSource struct {
	mu      sync.Mutex
	src     Source
	spec    FaultSpec
	rng     *rand.Rand
	ready   []Item     // due for immediate delivery
	held    []heldItem // delayed items counting down
	backlog []Item     // stall buffer
	pulled  int        // items pulled from the wrapped source
	srcDone bool
	stats   ChaosStats
}

// NewChaosSource wraps src with deterministic fault injection.
func NewChaosSource(src Source, spec FaultSpec) *ChaosSource {
	if spec.DelayMax < 1 {
		spec.DelayMax = 8
	}
	return &ChaosSource{
		src:  src,
		spec: spec,
		rng:  rand.New(rand.NewSource(spec.Seed)),
	}
}

// Stats returns the fault counts so far.
func (c *ChaosSource) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// DiscardHeld returns every batch the source holds back — delivered
// late by a delay, buffered by a stall or due for delivery — to the
// transport pool, as Discard does for one item: what a reader that
// stops early would never see. The wrapped source is not touched.
func (c *ChaosSource) DiscardHeld() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, it := range c.ready {
		Discard(it)
	}
	for _, h := range c.held {
		Discard(h.it)
	}
	for _, it := range c.backlog {
		Discard(it)
	}
	c.ready, c.held, c.backlog = nil, nil, nil
}

// Read implements Source, delivering the faulted stream.
func (c *ChaosSource) Read() (Item, bool) {
	return c.ReadContext(context.Background())
}

// ReadContext implements ContextSource, forwarding cancellation to the
// wrapped source when it supports it (a paced replay source above
// all, whose alignment wait must not outlive the topology).
func (c *ChaosSource) ReadContext(ctx context.Context) (Item, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Count down the held items once per read; due ones become ready.
	kept := c.held[:0]
	for _, h := range c.held {
		h.due--
		if h.due <= 0 {
			c.ready = append(c.ready, h.it)
		} else {
			kept = append(kept, h)
		}
	}
	c.held = kept
	for {
		if len(c.ready) > 0 {
			it := c.ready[0]
			c.ready = c.ready[1:]
			return it, true
		}
		if c.srcDone {
			if c.spec.StallFor > 0 && len(c.backlog) > 0 {
				// The feed ended while the mediator was still buffering:
				// a recovering mediator reconnects at end of feed and
				// delivers its backlog late.
				c.ready = append(c.ready, c.backlog...)
				c.backlog = nil
				continue
			}
			if len(c.held) > 0 {
				// No further reads would release them: flush in order.
				for _, h := range c.held {
					c.ready = append(c.ready, h.it)
				}
				c.held = nil
				continue
			}
			// A never-recovering stall loses its backlog: dead region.
			return nil, false
		}
		var it Item
		var ok bool
		if cs, isCtx := c.src.(ContextSource); isCtx {
			it, ok = cs.ReadContext(ctx)
		} else {
			it, ok = c.src.Read()
		}
		if !ok {
			c.srcDone = true
			continue
		}
		c.pulled++
		if c.spec.StallAfter > 0 && c.pulled > c.spec.StallAfter {
			end := c.spec.StallAfter + c.spec.StallFor
			if c.spec.StallFor <= 0 {
				c.stats.Stalled++
				Discard(it)
				continue // stalled forever: swallow
			}
			if c.pulled <= end {
				c.stats.Stalled++
				c.backlog = append(c.backlog, it)
				continue // buffering during the stall
			}
			if len(c.backlog) > 0 {
				// Stall over: the backlog floods out first (late
				// items), then the item that ended the stall; none of
				// them are re-faulted.
				c.ready = append(c.ready, c.backlog...)
				c.backlog = nil
				c.ready = append(c.ready, it)
				continue
			}
		}
		if pb, isBatch := ItemBatch(it); isBatch {
			out := c.faultBatchLocked(pb)
			if out == nil {
				continue // every row dropped or held
			}
			return out, true
		}
		if c.spec.DropProb > 0 && c.rng.Float64() < c.spec.DropProb {
			c.stats.Dropped++
			continue
		}
		if c.spec.DelayProb > 0 && c.rng.Float64() < c.spec.DelayProb {
			c.stats.Delayed++
			c.held = append(c.held, heldItem{it: it, due: 1 + c.rng.Intn(c.spec.DelayMax)})
			continue
		}
		if c.spec.DupProb > 0 && c.rng.Float64() < c.spec.DupProb {
			c.stats.Duplicated++
			c.ready = append(c.ready, it.Clone())
		}
		return it, true
	}
}

// faultBatchLocked applies row-level drop/delay/dup faults to a batch
// envelope, consuming rng draws in the exact per-row order of the
// per-item path (drop, then delay, then dup, each guarded by its
// probability) — with the same seed and DelayProb = 0, the faulted
// batched stream carries exactly the rows of the faulted per-item
// stream, in the same order. Delayed rows are held as single-row
// batches whose due countdown runs in batch reads (the reorder unit of
// batched transport). Returns nil when no row survives; otherwise the
// surviving rows in a fresh pooled batch. The input batch is consumed.
func (c *ChaosSource) faultBatchLocked(b *Batch) Item {
	if c.spec.DropProb <= 0 && c.spec.DelayProb <= 0 && c.spec.DupProb <= 0 {
		return BatchItem(b) // nothing to inject: forward untouched
	}
	out := GetBatch(b.Type, b.Source)
	n := b.Len()
	for i := 0; i < n; i++ {
		if c.spec.DropProb > 0 && c.rng.Float64() < c.spec.DropProb {
			c.stats.Dropped++
			continue
		}
		if c.spec.DelayProb > 0 && c.rng.Float64() < c.spec.DelayProb {
			c.stats.Delayed++
			held := GetBatch(b.Type, b.Source)
			held.AppendRowFrom(b, i)
			c.held = append(c.held, heldItem{it: BatchItem(held), due: 1 + c.rng.Intn(c.spec.DelayMax)})
			continue
		}
		out.AppendRowFrom(b, i)
		if c.spec.DupProb > 0 && c.rng.Float64() < c.spec.DupProb {
			c.stats.Duplicated++
			out.AppendRowFrom(b, i)
		}
	}
	b.Release()
	if out.Len() == 0 {
		out.Release()
		return nil
	}
	return BatchItem(out)
}

// ChaosProcessor wraps a Processor and injects errors with
// spec.ErrProb.
type ChaosProcessor struct {
	mu    sync.Mutex
	inner Processor
	spec  FaultSpec
	rng   *rand.Rand
	seen  int
	stats ChaosStats
}

// NewChaosProcessor wraps inner with deterministic error injection.
func NewChaosProcessor(inner Processor, spec FaultSpec) *ChaosProcessor {
	return &ChaosProcessor{
		inner: inner,
		spec:  spec,
		rng:   rand.New(rand.NewSource(spec.Seed)),
	}
}

// Stats returns the fault counts so far.
func (c *ChaosProcessor) Stats() ChaosStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// draw samples one injection decision (shared by Process and
// ProcessBatch; for batched transport the fault unit is the envelope).
func (c *ChaosProcessor) draw() (fail bool, n int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seen++
	fail = c.spec.ErrProb > 0 && c.rng.Float64() < c.spec.ErrProb
	if fail {
		c.stats.Errors++
	}
	return fail, c.seen
}

// Process implements Processor.
func (c *ChaosProcessor) Process(it Item) (Item, error) {
	fail, n := c.draw()
	if fail {
		return nil, fmt.Errorf("%w (item %d)", ErrInjected, n)
	}
	return c.inner.Process(it)
}

// ProcessBatch implements BatchProcessor: one injection draw per batch
// (a transport fault hits the whole envelope, which it releases), then
// the batch is forwarded to the wrapped processor — natively when it
// is batch-aware, otherwise row by row through its compatibility view.
func (c *ChaosProcessor) ProcessBatch(b *Batch) ([]Item, error) {
	fail, n := c.draw()
	if fail {
		b.Release()
		return nil, fmt.Errorf("%w (batch %d)", ErrInjected, n)
	}
	if bp, aware := c.inner.(BatchProcessor); aware {
		return bp.ProcessBatch(b)
	}
	defer b.Release()
	var outs []Item
	rows := b.Len()
	for i := 0; i < rows; i++ {
		out, err := c.inner.Process(b.ItemAt(i))
		if err != nil {
			return nil, err
		}
		if out != nil {
			outs = append(outs, out)
		}
	}
	return outs, nil
}
