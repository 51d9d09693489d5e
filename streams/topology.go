package streams

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Process is a node of the data flow graph: it reads items from its
// input, pipes each through its processor chain and writes the
// surviving items to its output. Policy decides how processor errors
// are handled (the zero value is fail-fast).
type Process struct {
	Name       string
	Input      Source
	Processors []Processor
	Output     Sink // optional; nil discards
	Policy     SupervisionPolicy

	// outBuf is the reusable output accumulator of processItem: a
	// single input item can fan out (a batch envelope expanding into
	// rows, a BatchProcessor emitting several reports), and reusing
	// the slice keeps the per-item steady state allocation-free.
	outBuf []Item
}

// ContextSource is an optional Source extension whose Read can be
// interrupted by context cancellation; queues implement it so the
// topology can unwind cleanly when a process fails.
type ContextSource interface {
	ReadContext(context.Context) (Item, bool)
}

// ContextSink is the Sink counterpart of ContextSource.
type ContextSink interface {
	WriteContext(context.Context, Item) error
}

// Flusher is an optional Processor extension. When a process's input
// is exhausted, Flush is called once on each flushing processor (in
// chain order); the returned items are piped through the remaining
// processors and written to the process output before the process
// exits. Stateful processors use it to emit buffered results that no
// further input would otherwise release — e.g. the pipeline's event
// processor flushing reports for query boundaries that became due
// simultaneously at end of stream.
type Flusher interface {
	Flush() ([]Item, error)
}

// isolatedError marks a terminal process error whose policy confines
// the failure to the process itself instead of aborting the topology.
type isolatedError struct{ err error }

func (e isolatedError) Error() string { return e.err.Error() }
func (e isolatedError) Unwrap() error { return e.err }

// sleepCtx sleeps d, returning false if the context is cancelled
// first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// applyFrom pipes the item through the processors starting at index
// from, appending every surviving output to dst. A single input can
// produce zero, one or many outputs: a batch envelope handed to a
// non-batch-aware processor is expanded into its row items (each piped
// through the rest of the chain, then the batch released), and a
// BatchProcessor may emit several items per batch.
func (p *Process) applyFrom(from int, it Item, dst []Item) ([]Item, error) {
	if from >= len(p.Processors) {
		return append(dst, it), nil
	}
	proc := p.Processors[from]
	if b, isBatch := ItemBatch(it); isBatch {
		if bp, aware := proc.(BatchProcessor); aware {
			// Ownership of the batch transfers to the processor.
			outs, err := bp.ProcessBatch(b)
			if err != nil {
				return dst, err
			}
			for _, out := range outs {
				var cErr error
				dst, cErr = p.applyFrom(from+1, out, dst)
				if cErr != nil {
					return dst, cErr
				}
			}
			return dst, nil
		}
		// Compatibility expansion: the processor is not batch-aware,
		// so feed it the rows as lazily materialized Items. The rows
		// are copies, so the batch can be released as soon as the last
		// one has been piped. On error the batch is kept live: the
		// supervision layer may dead-letter or retry the envelope.
		n := b.Len()
		for i := 0; i < n; i++ {
			var cErr error
			dst, cErr = p.applyFrom(from, b.ItemAt(i), dst)
			if cErr != nil {
				return dst, cErr
			}
		}
		b.Release()
		return dst, nil
	}
	out, err := proc.Process(it)
	if err != nil {
		return dst, err
	}
	if out == nil {
		return dst, nil
	}
	return p.applyFrom(from+1, out, dst)
}

// processItem applies the processor chain under the process's
// supervision policy, returning the surviving outputs in a buffer that
// is only valid until the next call. An empty result with nil error
// means the item was dropped (by the chain or by dead-lettering); for
// supervision purposes a whole batch envelope counts as one item — a
// failing batch is dead-lettered (and retried) as a unit.
func (p *Process) processItem(ctx context.Context, sup *supervisor, it Item) ([]Item, error) {
	out, err := p.applyFrom(0, it, p.outBuf[:0])
	p.outBuf = out
	if err == nil {
		return out, nil
	}
	switch p.Policy.Strategy {
	case SkipItem:
		sup.deadLetter(p.Name, it, err, 1)
		return nil, nil
	case Restart:
		retry := p.Policy.Retry.normalized()
		for attempt := 1; attempt <= retry.MaxAttempts; attempt++ {
			sup.retrying(p.Name, err)
			if !sleepCtx(ctx, retry.Delay(attempt)) {
				return nil, ctx.Err()
			}
			out, err = p.applyFrom(0, it, p.outBuf[:0])
			p.outBuf = out
			if err == nil {
				sup.state(p.Name, HealthRunning, nil)
				return out, nil
			}
		}
		wrapped := fmt.Errorf("streams: process %q: %d attempts exhausted: %w",
			p.Name, retry.MaxAttempts+1, err)
		if p.Policy.OnExhausted == Isolate {
			sup.deadLetter(p.Name, it, err, retry.MaxAttempts+1)
			return nil, isolatedError{wrapped}
		}
		return nil, wrapped
	default:
		return nil, fmt.Errorf("streams: process %q: %w", p.Name, err)
	}
}

// emit writes an item to the process output (context-aware when the
// sink supports it).
func (p *Process) emit(ctx context.Context, it Item) error {
	var err error
	if cs, isCtx := p.Output.(ContextSink); isCtx {
		err = cs.WriteContext(ctx, it)
	} else {
		err = p.Output.Write(it)
	}
	if err != nil {
		return fmt.Errorf("streams: process %q output: %w", p.Name, err)
	}
	return nil
}

// flush drains the flushing processors once the input is exhausted.
// Flush errors are terminal regardless of policy: there is no next
// item to skip to.
func (p *Process) flush(ctx context.Context) error {
	for i, proc := range p.Processors {
		f, ok := proc.(Flusher)
		if !ok {
			continue
		}
		items, err := f.Flush()
		if err != nil {
			return fmt.Errorf("streams: process %q flush: %w", p.Name, err)
		}
		for _, it := range items {
			outs, err := p.applyFrom(i+1, it, p.outBuf[:0])
			p.outBuf = outs
			if err != nil {
				return fmt.Errorf("streams: process %q flush: %w", p.Name, err)
			}
			if p.Output == nil {
				continue
			}
			for _, out := range outs {
				if err := p.emit(ctx, out); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// run pumps the process until its input is exhausted or the context
// is cancelled, applying the supervision policy to processor errors.
func (p *Process) run(ctx context.Context, sup *supervisor) error {
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		var it Item
		var ok bool
		if cs, isCtx := p.Input.(ContextSource); isCtx {
			it, ok = cs.ReadContext(ctx)
		} else {
			it, ok = p.Input.Read()
		}
		if !ok {
			if err := ctx.Err(); err != nil {
				return err
			}
			return p.flush(ctx)
		}
		outs, err := p.processItem(ctx, sup, it)
		if err != nil {
			return err
		}
		if len(outs) == 0 || p.Output == nil {
			continue
		}
		for i, out := range outs {
			if err := p.emit(ctx, out); err != nil {
				for _, lost := range outs[i:] {
					Discard(lost) // the process dies holding these
				}
				return err
			}
		}
	}
}

// drain consumes and discards a source until it ends or the context is
// cancelled. It keeps upstream producers of an isolated process from
// blocking on a full queue nobody reads any more.
func drain(ctx context.Context, src Source) {
	cs, isCtx := src.(ContextSource)
	for {
		var ok bool
		if isCtx {
			_, ok = cs.ReadContext(ctx)
		} else {
			_, ok = src.Read()
		}
		if !ok || ctx.Err() != nil {
			return
		}
	}
}

// Topology is a compiled data flow graph: named streams, queues,
// services and the processes connecting them.
type Topology struct {
	mu        sync.Mutex
	sources   map[string]Source
	queues    map[string]*Queue
	sinks     map[string]Sink
	services  map[string]Service
	processes []*Process
	// writers counts the processes writing into each queue so the
	// topology can close a queue when its last producer finishes.
	writers map[*Queue]int
	// sup tracks health and dead letters of the current (or last) run.
	sup *supervisor
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{
		sources:  make(map[string]Source),
		queues:   make(map[string]*Queue),
		sinks:    make(map[string]Sink),
		services: make(map[string]Service),
		writers:  make(map[*Queue]int),
	}
}

// AddStream registers an input stream under an id.
func (t *Topology) AddStream(id string, s Source) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.sources[id]; dup {
		return fmt.Errorf("streams: duplicate stream %q", id)
	}
	t.sources[id] = s
	return nil
}

// AddQueue creates a named queue.
func (t *Topology) AddQueue(id string, capacity int) (*Queue, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.queues[id]; dup {
		return nil, fmt.Errorf("streams: duplicate queue %q", id)
	}
	q := NewQueue(capacity)
	t.queues[id] = q
	return q, nil
}

// Queue returns a queue by id.
func (t *Topology) Queue(id string) (*Queue, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	q, ok := t.queues[id]
	return q, ok
}

// AddSink registers an output sink under an id.
func (t *Topology) AddSink(id string, s Sink) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.sinks[id]; dup {
		return fmt.Errorf("streams: duplicate sink %q", id)
	}
	t.sinks[id] = s
	return nil
}

// RegisterService stores a named service.
func (t *Topology) RegisterService(id string, s Service) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, dup := t.services[id]; dup {
		return fmt.Errorf("streams: duplicate service %q", id)
	}
	t.services[id] = s
	return nil
}

// LookupService retrieves a named service.
func (t *Topology) LookupService(id string) (Service, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s, ok := t.services[id]
	return s, ok
}

// resolveSourceLocked finds a stream or queue by id.
func (t *Topology) resolveSourceLocked(id string) (Source, bool) {
	if s, ok := t.sources[id]; ok {
		return s, true
	}
	if q, ok := t.queues[id]; ok {
		return q, true
	}
	return nil, false
}

// resolveSinkLocked finds a queue or sink by id.
func (t *Topology) resolveSinkLocked(id string) (Sink, bool) {
	if q, ok := t.queues[id]; ok {
		return q, true
	}
	if s, ok := t.sinks[id]; ok {
		return s, true
	}
	return nil, false
}

// AddProcess wires a process between the named input (stream or
// queue) and the named output (queue or sink; "" for none).
func (t *Topology) AddProcess(name, inputID, outputID string, processors ...Processor) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	in, ok := t.resolveSourceLocked(inputID)
	if !ok {
		return fmt.Errorf("streams: process %q: unknown input %q", name, inputID)
	}
	var out Sink
	if outputID != "" {
		out, ok = t.resolveSinkLocked(outputID)
		if !ok {
			return fmt.Errorf("streams: process %q: unknown output %q", name, outputID)
		}
	}
	p := &Process{Name: name, Input: in, Processors: processors, Output: out}
	t.processes = append(t.processes, p)
	if q, isQueue := out.(*Queue); isQueue {
		t.writers[q]++
	}
	return nil
}

// Supervise sets the supervision policy of a named process. It must be
// called after AddProcess and before Run.
func (t *Topology) Supervise(processName string, policy SupervisionPolicy) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, p := range t.processes {
		if p.Name == processName {
			p.Policy = policy
			return nil
		}
	}
	return fmt.Errorf("streams: supervise: unknown process %q", processName)
}

// Health returns the supervision state of every process, keyed by
// process name, as of the current or most recent Run (idle states
// before the first Run).
func (t *Topology) Health() map[string]ProcessHealth {
	t.mu.Lock()
	sup := t.sup
	processes := t.processes
	t.mu.Unlock()
	if sup == nil {
		out := make(map[string]ProcessHealth, len(processes))
		for _, p := range processes {
			out[p.Name] = ProcessHealth{State: HealthIdle}
		}
		return out
	}
	return sup.snapshot()
}

// DeadLetters returns the items dead-lettered during the current or
// most recent Run (capped at an internal retention limit; the per-
// process Skipped counters are exact).
func (t *Topology) DeadLetters() []DeadLetter {
	t.mu.Lock()
	sup := t.sup
	t.mu.Unlock()
	if sup == nil {
		return nil
	}
	return sup.deadLetters()
}

// Run executes the data flow graph: one goroutine per process, until
// every input stream is exhausted (queues are closed as their last
// producers finish, which cascades shutdown through the graph) or the
// context is cancelled.
//
// Failure handling follows each process's supervision policy: only
// fail-fast errors (and exhausted Restart policies with the Escalate
// action) abort the topology; isolated and skipped failures are
// recorded in Health and DeadLetters while the rest of the graph keeps
// running. Run returns all aborting process errors joined with
// errors.Join, preferring root causes: cancellation errors
// (context.Canceled, context.DeadlineExceeded) induced by the unwind
// are dropped from the joined error whenever a root cause exists.
func (t *Topology) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	t.mu.Lock()
	processes := append([]*Process(nil), t.processes...)
	sup := newSupervisor(processes)
	t.sup = sup
	writers := make(map[*Queue]*sync.WaitGroup, len(t.writers))
	for q, n := range t.writers {
		wg := &sync.WaitGroup{}
		wg.Add(n)
		writers[q] = wg
		go func(q *Queue, wg *sync.WaitGroup) {
			wg.Wait()
			q.Close()
		}(q, wg)
	}
	// Queues nobody writes to would block their readers forever:
	// close them immediately.
	for _, q := range t.queues {
		if _, hasWriter := writers[q]; !hasWriter {
			q.Close()
		}
	}
	t.mu.Unlock()

	errs := make(chan error, len(processes))
	var wg sync.WaitGroup
	for _, p := range processes {
		wg.Add(1)
		go func(p *Process) {
			defer wg.Done()
			err := p.run(ctx, sup)
			var iso isolatedError
			switch {
			case err == nil:
				sup.state(p.Name, HealthDone, nil)
			case errors.As(err, &iso):
				// Confined failure: record it, keep the input flowing
				// for the other consumers/producers, don't abort.
				sup.state(p.Name, HealthFailed, iso.err)
				go drain(ctx, p.Input)
			default:
				sup.state(p.Name, HealthFailed, err)
				errs <- err
				cancel() // unwind the rest of the graph
			}
			// Release the writer count only after a fatal error has
			// cancelled the context: a closed queue means end-of-stream
			// to its readers (they Flush on it), and a crashed producer
			// must never impersonate one. Readers waking on the close
			// observe the close's happens-before edge, so the ctx.Err()
			// check in run sees the cancellation and skips the flush.
			if q, isQueue := p.Output.(*Queue); isQueue {
				writers[q].Done()
			}
		}(p)
	}
	wg.Wait()
	close(errs)
	// Prefer root-cause errors over the cancellations they induced;
	// join every root cause so no co-failing process is hidden.
	var roots, induced []error
	for err := range errs {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			induced = append(induced, err)
			continue
		}
		roots = append(roots, err)
	}
	if len(roots) > 0 {
		return errors.Join(roots...)
	}
	if len(induced) > 0 {
		return induced[0]
	}
	return nil
}
