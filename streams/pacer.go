package streams

import (
	"context"
	"sync"
)

// Pacer aligns a group of replay sources on a shared virtual clock:
// no stream may emit an item timestamped more than the slack bound
// ahead of the slowest stream still replaying. Without alignment a
// replayed topology loses the arrival interleaving a live deployment
// would see — whichever producer goroutine the scheduler favours races
// a whole window ahead, and anything built on cross-stream arrival
// progress (watermark staleness above all) misfires. This is the
// source watermark alignment of production stream processors, driven
// by item timestamps instead of wall clock so replays stay
// deterministic in the virtual time domain.
//
// Deadlock freedom: a stream announces the timestamp it wants to emit
// before waiting, so the stream holding the globally smallest pending
// timestamp is always admitted. Streams that end (Finish) stop
// constraining the rest.
type Pacer struct {
	mu    sync.Mutex
	cond  *sync.Cond
	slack int64
	clock map[string]int64 // announced per-stream progress
	done  map[string]bool
}

// NewPacer creates a pacer with the given slack bound (in the item
// timestamp unit).
func NewPacer(slack int64) *Pacer {
	p := &Pacer{
		slack: slack,
		clock: make(map[string]int64),
		done:  make(map[string]bool),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// Register announces a stream before replay starts, with its initial
// clock. Every participating stream must register before any of them
// emits, or it would not constrain the others from the start.
func (p *Pacer) Register(id string, start int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.clock[id]; !ok {
		p.clock[id] = start
	}
	p.cond.Broadcast()
}

// minOthersLocked is the slowest announced clock among the other live
// streams; ok is false when no other stream is live.
func (p *Pacer) minOthersLocked(id string) (int64, bool) {
	min, found := int64(0), false
	for other, c := range p.clock {
		if other == id || p.done[other] {
			continue
		}
		if !found || c < min {
			min, found = c, true
		}
	}
	return min, found
}

// Wait blocks until stream id may emit an item timestamped t, i.e.
// until t is within the slack bound of the slowest other live stream.
// It returns false if the context is cancelled first.
func (p *Pacer) Wait(ctx context.Context, id string, t int64) bool {
	stop := context.AfterFunc(ctx, func() {
		p.mu.Lock()
		p.cond.Broadcast()
		p.mu.Unlock()
	})
	defer stop()
	p.mu.Lock()
	defer p.mu.Unlock()
	if t > p.clock[id] {
		p.clock[id] = t // announce before waiting: deadlock freedom
		p.cond.Broadcast()
	}
	for {
		if ctx.Err() != nil {
			return false
		}
		min, constrained := p.minOthersLocked(id)
		if !constrained || t <= min+p.slack {
			return true
		}
		p.cond.Wait()
	}
}

// Finish marks the stream as ended; it no longer constrains the
// others.
func (p *Pacer) Finish(id string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done[id] = true
	p.cond.Broadcast()
}

// PacedSource aligns a replay source on a shared Pacer. Items whose
// timestamp the extractor cannot determine (punctuation markers) pass
// through unpaced.
type PacedSource struct {
	src    Source
	pacer  *Pacer
	id     string
	timeOf func(Item) (int64, bool)
}

// NewPacedSource wraps src; timeOf extracts the pacing timestamp of an
// item (ok false exempts the item). The stream is registered with the
// pacer at the given start clock.
func NewPacedSource(src Source, pacer *Pacer, id string, start int64, timeOf func(Item) (int64, bool)) *PacedSource {
	pacer.Register(id, start)
	return &PacedSource{src: src, pacer: pacer, id: id, timeOf: timeOf}
}

// Read implements Source.
func (s *PacedSource) Read() (Item, bool) {
	return s.ReadContext(context.Background())
}

// ReadContext implements ContextSource: cancellation interrupts both
// the inner read (when supported) and the pacing wait, so a paced
// producer cannot hang topology shutdown.
func (s *PacedSource) ReadContext(ctx context.Context) (Item, bool) {
	var it Item
	var ok bool
	if cs, isCtx := s.src.(ContextSource); isCtx {
		it, ok = cs.ReadContext(ctx)
	} else {
		it, ok = s.src.Read()
	}
	if !ok {
		s.pacer.Finish(s.id)
		return nil, false
	}
	if t, has := s.timeOf(it); has {
		if !s.pacer.Wait(ctx, s.id, t) {
			Discard(it) // read, never delivered
			return nil, false
		}
	}
	return it, true
}
