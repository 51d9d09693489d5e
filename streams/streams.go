// Package streams is a Go implementation of the abstractions of the
// Streams framework (Bockermann & Blom 2012) that forms the backbone
// of the INSIGHT system (Section 3 of Artikis et al., EDBT 2014):
//
//   - data items are sets of key-value pairs;
//   - the nodes of the data flow graph are processes, each comprising
//     a sequence of processors; a process takes a stream or a queue as
//     input and processors apply a function to each item;
//   - services are named sets of functions accessible throughout the
//     stream processing application;
//   - data flow graphs are described declaratively (in the original,
//     an XML language; see LoadXML) and compiled into a computation
//     graph for the engine.
package streams

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
)

// Item is one data item: a set of event attributes and their values.
type Item map[string]any

// Clone returns a shallow copy of the item.
func (it Item) Clone() Item {
	out := make(Item, len(it))
	for k, v := range it {
		out[k] = v
	}
	return out
}

// String returns a string attribute ("" if absent or differently typed).
func (it Item) String(key string) string {
	s, _ := it[key].(string)
	return s
}

// Float returns a numeric attribute as float64. It coerces every
// numeric payload type the feeds produce — float64/float32,
// int/int32/int64, uint/uint32/uint64, and json.Number (for items
// decoded straight from JSON feeds) — anything else yields 0.
//
// Coercion semantics: integer values above 2^53 lose precision in the
// usual float64 way; uint64 values above math.MaxInt64 convert exactly
// (no wraparound — the conversion goes straight to float64); a
// json.Number that does not parse as a float yields 0.
//
//lint:allow unusedapi Item's typed accessor; Example_xmlpipeline's processor reads readings with it
func (it Item) Float(key string) float64 {
	switch v := it[key].(type) {
	case float64:
		return v
	case float32:
		return float64(v)
	case int:
		return float64(v)
	case int32:
		return float64(v)
	case int64:
		return float64(v)
	case uint:
		return float64(v)
	case uint32:
		return float64(v)
	case uint64:
		return float64(v)
	case json.Number:
		f, err := v.Float64()
		if err != nil {
			return 0
		}
		return f
	}
	return 0
}

// Bool returns a boolean attribute.
func (it Item) Bool(key string) bool {
	b, _ := it[key].(bool)
	return b
}

// Processor applies a function to each data item in a stream.
// Returning a nil item drops the item from the flow; returning an
// error aborts the process.
type Processor interface {
	Process(Item) (Item, error)
}

// ProcessorFunc adapts a function to the Processor interface.
type ProcessorFunc func(Item) (Item, error)

// Process calls f.
func (f ProcessorFunc) Process(it Item) (Item, error) { return f(it) }

// Source yields the items of a stream. Read blocks until an item is
// available or the stream ends (ok = false).
type Source interface {
	Read() (Item, bool)
}

// Sink accepts items.
type Sink interface {
	Write(Item) error
}

// SliceSource is a finite in-memory stream, handy for tests and for
// replaying recorded data.
type SliceSource struct {
	mu    sync.Mutex
	items []Item
	pos   int
}

// NewSliceSource wraps items as a Source.
func NewSliceSource(items ...Item) *SliceSource {
	return &SliceSource{items: items}
}

// Read returns the next item.
func (s *SliceSource) Read() (Item, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pos >= len(s.items) {
		return nil, false
	}
	it := s.items[s.pos]
	s.pos++
	return it, true
}

// Queue is a bounded FIFO connecting processes, analogous to the
// queues of the Streams framework. It is both a Source and a Sink.
// Writers must Close the queue (or let the topology do it) to signal
// the end of the stream to readers.
type Queue struct {
	ch     chan Item
	mu     sync.Mutex
	closed bool
}

// NewQueue builds a queue with the given capacity (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{ch: make(chan Item, capacity)}
}

// Write enqueues an item; it blocks while the queue is full and fails
// on a closed queue.
func (q *Queue) Write(it Item) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return fmt.Errorf("streams: write on closed queue")
	}
	q.mu.Unlock()
	q.ch <- it
	return nil
}

// Read dequeues the next item, blocking until one is available or the
// queue is closed and drained.
func (q *Queue) Read() (Item, bool) {
	it, ok := <-q.ch
	return it, ok
}

// ReadContext dequeues the next item, giving up when the context is
// cancelled.
func (q *Queue) ReadContext(ctx context.Context) (Item, bool) {
	select {
	case it, ok := <-q.ch:
		return it, ok
	case <-ctx.Done():
		return nil, false
	}
}

// WriteContext enqueues an item, giving up when the context is
// cancelled.
func (q *Queue) WriteContext(ctx context.Context, it Item) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return fmt.Errorf("streams: write on closed queue")
	}
	q.mu.Unlock()
	select {
	case q.ch <- it:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close marks the end of the stream. Closing twice is a no-op.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Len returns the number of buffered items.
func (q *Queue) Len() int { return len(q.ch) }

// Service is a named set of functions accessible throughout the
// stream processing application — e.g. the traffic modelling procedure
// is "wrapped as a Streams service" (Section 3). Concrete services are
// application-defined; the topology only stores and hands them out.
type Service any

// CollectorSink gathers all items written to it (for tests and result
// extraction).
type CollectorSink struct {
	mu    sync.Mutex
	items []Item
}

// NewCollectorSink returns an empty collector.
func NewCollectorSink() *CollectorSink { return &CollectorSink{} }

// Write stores the item.
func (c *CollectorSink) Write(it Item) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	//lint:allow itemalias a sink is the end of the flow: ownership of the item transfers on Write
	c.items = append(c.items, it)
	return nil
}

// Items returns a copy of everything collected so far.
func (c *CollectorSink) Items() []Item {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Item, len(c.items))
	copy(out, c.items)
	return out
}

// Len returns the number of collected items.
func (c *CollectorSink) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}
