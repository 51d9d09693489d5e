package streams

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestItemAccessors(t *testing.T) {
	it := Item{"s": "x", "f": 1.5, "i": int64(7), "n": 3, "b": true}
	if it.String("s") != "x" || it.String("missing") != "" {
		t.Error("String accessor")
	}
	if it.Float("f") != 1.5 || it.Float("i") != 7 || it.Float("n") != 3 {
		t.Error("Float accessor")
	}
	if it.Int("i") != 7 || it.Int("f") != 1 || it.Int("n") != 3 {
		t.Error("Int accessor")
	}
	if !it.Bool("b") || it.Bool("s") {
		t.Error("Bool accessor")
	}
	c := it.Clone()
	c["s"] = "y"
	if it.String("s") != "x" {
		t.Error("Clone must not alias")
	}
}

func TestItemNumericCoercions(t *testing.T) {
	cases := []struct {
		name      string
		value     any
		wantFloat float64
		wantInt   int64
	}{
		{"float64", float64(2.5), 2.5, 2},
		{"float32", float32(1.5), 1.5, 1},
		{"int", int(-4), -4, -4},
		{"int32", int32(9), 9, 9},
		{"int64", int64(12), 12, 12},
		{"uint", uint(7), 7, 7},
		{"string", "nope", 0, 0},
		{"bool", true, 0, 0},
		{"missing", nil, 0, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			it := Item{}
			if c.value != nil {
				it["v"] = c.value
			}
			if got := it.Float("v"); got != c.wantFloat {
				t.Errorf("Float(%T %v) = %v, want %v", c.value, c.value, got, c.wantFloat)
			}
			if got := it.Int("v"); got != c.wantInt {
				t.Errorf("Int(%T %v) = %v, want %v", c.value, c.value, got, c.wantInt)
			}
		})
	}
}

func TestSliceSource(t *testing.T) {
	s := NewSliceSource(Item{"n": 1}, Item{"n": 2})
	it1, ok1 := s.Read()
	it2, ok2 := s.Read()
	_, ok3 := s.Read()
	if !ok1 || !ok2 || ok3 {
		t.Fatal("SliceSource read sequence broken")
	}
	if it1.Int("n") != 1 || it2.Int("n") != 2 {
		t.Error("items out of order")
	}
}

func TestQueueBasics(t *testing.T) {
	q := NewQueue(2)
	if err := q.Write(Item{"n": 1}); err != nil {
		t.Fatal(err)
	}
	if q.Len() != 1 {
		t.Errorf("Len = %d", q.Len())
	}
	it, ok := q.Read()
	if !ok || it.Int("n") != 1 {
		t.Error("Read")
	}
	q.Close()
	q.Close() // idempotent
	if _, ok := q.Read(); ok {
		t.Error("closed drained queue must report !ok")
	}
	if err := q.Write(Item{}); err == nil {
		t.Error("write on closed queue must error")
	}
	if err := q.WriteContext(context.Background(), Item{}); err == nil {
		t.Error("WriteContext on closed queue must error")
	}
}

func TestQueueContextOps(t *testing.T) {
	q := NewQueue(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, ok := q.ReadContext(ctx); ok {
		t.Error("cancelled ReadContext must report !ok")
	}
	if err := q.Write(Item{"n": 1}); err != nil {
		t.Fatal(err)
	}
	// Queue full; cancelled write must not block.
	if err := q.WriteContext(ctx, Item{"n": 2}); !errors.Is(err, context.Canceled) {
		t.Errorf("WriteContext on full queue with cancelled ctx = %v", err)
	}
}

func TestCollectorSink(t *testing.T) {
	c := NewCollectorSink()
	for i := 0; i < 3; i++ {
		if err := c.Write(Item{"n": i}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 3 || len(c.Items()) != 3 {
		t.Error("collector miscounts")
	}
	if (DiscardSink{}).Write(Item{}) != nil {
		t.Error("DiscardSink must accept everything")
	}
}

func TestTopologyLinearPipeline(t *testing.T) {
	top := NewTopology()
	src := NewSliceSource(
		Item{"v": 1.0}, Item{"v": -2.0}, Item{"v": 3.0}, Item{"v": -4.0},
	)
	if err := top.AddStream("in", src); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("mid", 8); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}

	dropNegative := ProcessorFunc(func(it Item) (Item, error) {
		if it.Float("v") < 0 {
			return nil, nil
		}
		return it, nil
	})
	double := ProcessorFunc(func(it Item) (Item, error) {
		it = it.Clone()
		it["v"] = it.Float("v") * 2
		return it, nil
	})
	if err := top.AddProcess("filter", "in", "mid", dropNegative); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("scale", "mid", "out", double); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := out.Items()
	if len(items) != 2 {
		t.Fatalf("collected %d items, want 2", len(items))
	}
	sum := items[0].Float("v") + items[1].Float("v")
	if sum != 8 { // (1+3)*2
		t.Errorf("sum = %v, want 8", sum)
	}
}

func TestTopologyFanInFanOut(t *testing.T) {
	// Two input streams fan into one queue; two processes read the
	// queue and write to separate collectors (work sharing).
	top := NewTopology()
	mk := func(base int) []Item {
		items := make([]Item, 10)
		for i := range items {
			items[i] = Item{"n": base + i}
		}
		return items
	}
	if err := top.AddStream("a", NewSliceSource(mk(0)...)); err != nil {
		t.Fatal(err)
	}
	if err := top.AddStream("b", NewSliceSource(mk(100)...)); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("merge", 4); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("inA", "a", "merge", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("inB", "b", "merge", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("w1", "merge", "out", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("w2", "merge", "out", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if out.Len() != 20 {
		t.Errorf("collected %d, want all 20 (queue must close after both producers)", out.Len())
	}
}

func TestTopologyProcessorError(t *testing.T) {
	top := NewTopology()
	items := make([]Item, 100)
	for i := range items {
		items[i] = Item{"n": i}
	}
	if err := top.AddStream("in", NewSliceSource(items...)); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("mid", 1); err != nil {
		t.Fatal(err)
	}
	boom := ProcessorFunc(func(it Item) (Item, error) {
		if it.Int("n") >= 3 {
			return nil, fmt.Errorf("boom at %d", it.Int("n"))
		}
		return it, nil
	})
	pass := ProcessorFunc(func(it Item) (Item, error) { return it, nil })
	if err := top.AddProcess("feed", "in", "mid", pass); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("explode", "mid", "", boom); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- top.Run(context.Background()) }()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "boom") {
			t.Errorf("Run error = %v, want the processor error", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("topology deadlocked after processor error")
	}
}

func TestTopologyContextCancellation(t *testing.T) {
	top := NewTopology()
	// An infinite source.
	inf := sourceFunc(func() (Item, bool) { return Item{"n": 1}, true })
	if err := top.AddStream("in", inf); err != nil {
		t.Fatal(err)
	}
	if err := top.AddProcess("p", "in", "", ProcessorFunc(func(it Item) (Item, error) {
		return it, nil
	})); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- top.Run(ctx) }()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("Run = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancellation did not stop the topology")
	}
}

type sourceFunc func() (Item, bool)

func (f sourceFunc) Read() (Item, bool) { return f() }

func TestTopologyValidation(t *testing.T) {
	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource()); err != nil {
		t.Fatal(err)
	}
	if err := top.AddStream("in", NewSliceSource()); err == nil {
		t.Error("duplicate stream must error")
	}
	if _, err := top.AddQueue("q", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AddQueue("q", 1); err == nil {
		t.Error("duplicate queue must error")
	}
	if err := top.AddSink("s", NewCollectorSink()); err != nil {
		t.Fatal(err)
	}
	if err := top.AddSink("s", NewCollectorSink()); err == nil {
		t.Error("duplicate sink must error")
	}
	if err := top.AddProcess("p", "ghost", ""); err == nil {
		t.Error("unknown input must error")
	}
	if err := top.AddProcess("p", "in", "ghost"); err == nil {
		t.Error("unknown output must error")
	}
	if err := top.RegisterService("svc", 42); err != nil {
		t.Fatal(err)
	}
	if err := top.RegisterService("svc", 43); err == nil {
		t.Error("duplicate service must error")
	}
	if svc, ok := top.LookupService("svc"); !ok || svc.(int) != 42 {
		t.Error("LookupService")
	}
	if _, ok := top.LookupService("nope"); ok {
		t.Error("unknown service lookup must fail")
	}
	if q, ok := top.Queue("q"); !ok || q == nil {
		t.Error("Queue lookup")
	}
}

func TestLoadXML(t *testing.T) {
	reg := NewRegistry()
	if err := reg.RegisterProcessor("scale", func(params map[string]string) (Processor, error) {
		factor := 1.0
		if params["factor"] == "3" {
			factor = 3
		}
		return ProcessorFunc(func(it Item) (Item, error) {
			it = it.Clone()
			it["v"] = it.Float("v") * factor
			return it, nil
		}), nil
	}); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterService("const", func(params map[string]string) (Service, error) {
		return params["value"], nil
	}); err != nil {
		t.Fatal(err)
	}

	const def = `
<application>
  <queue id="mid" capacity="4"/>
  <process id="p1" input="in" output="mid">
    <processor class="scale" factor="3"/>
  </process>
  <process id="p2" input="mid" output="out"/>
  <service id="cfg" class="const" value="hello"/>
</application>`

	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource(Item{"v": 2.0})); err != nil {
		t.Fatal(err)
	}
	out := NewCollectorSink()
	if err := top.AddSink("out", out); err != nil {
		t.Fatal(err)
	}
	if err := LoadXML(top, reg, strings.NewReader(def)); err != nil {
		t.Fatal(err)
	}
	if svc, ok := top.LookupService("cfg"); !ok || svc.(string) != "hello" {
		t.Error("service not loaded")
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := out.Items()
	if len(items) != 1 || items[0].Float("v") != 6 {
		t.Errorf("items = %v", items)
	}
}

func TestLoadXMLErrors(t *testing.T) {
	reg := NewRegistry()
	top := NewTopology()
	cases := []struct {
		name string
		def  string
	}{
		{"malformed", `<application`},
		{"queue no id", `<application><queue/></application>`},
		{"unknown processor", `<application><process id="p" input="x"><processor class="nope"/></process></application>`},
		{"processor no class", `<application><process id="p" input="x"><processor/></process></application>`},
		{"process no id", `<application><process input="x"/></application>`},
		{"unknown service", `<application><service id="s" class="nope"/></application>`},
		{"service no id", `<application><service class="nope"/></application>`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := LoadXML(top, reg, strings.NewReader(c.def)); err == nil {
				t.Error("want error")
			}
		})
	}
}

func TestLoadXMLQueueCapacity(t *testing.T) {
	cases := []struct {
		capacity string
		want     int // buffer size; 0: the document is refused
	}{
		{"-5", 1},
		{"0", 1},
		{"256", 256},
		{strconv.Itoa(maxXMLQueueCapacity), maxXMLQueueCapacity},
		{strconv.Itoa(maxXMLQueueCapacity + 1), 0},
		{"1000000000", 0},
	}
	for _, c := range cases {
		t.Run(c.capacity, func(t *testing.T) {
			top := NewTopology()
			def := `<application><queue id="q" capacity="` + c.capacity + `"/></application>`
			err := LoadXML(top, NewRegistry(), strings.NewReader(def))
			if c.want == 0 {
				if err == nil || !strings.Contains(err.Error(), `"q"`) {
					t.Fatalf("err = %v, want a refusal naming queue \"q\"", err)
				}
				if _, ok := top.Queue("q"); ok {
					t.Error("refused queue was added")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			q, ok := top.Queue("q")
			if !ok || cap(q.ch) != c.want {
				t.Errorf("queue buffer = %d, want %d", cap(q.ch), c.want)
			}
		})
	}
}

func TestRegistryDuplicates(t *testing.T) {
	reg := NewRegistry()
	f := func(map[string]string) (Processor, error) { return nil, nil }
	if err := reg.RegisterProcessor("x", f); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterProcessor("x", f); err == nil {
		t.Error("duplicate processor class must error")
	}
	sf := func(map[string]string) (Service, error) { return nil, nil }
	if err := reg.RegisterService("x", sf); err != nil {
		t.Fatal(err)
	}
	if err := reg.RegisterService("x", sf); err == nil {
		t.Error("duplicate service class must error")
	}
}

func TestQueueConcurrentProducersConsumers(t *testing.T) {
	q := NewQueue(16)
	const producers, perProducer = 4, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if err := q.Write(Item{"n": i}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	go func() {
		wg.Wait()
		q.Close()
	}()
	count := 0
	for {
		_, ok := q.Read()
		if !ok {
			break
		}
		count++
	}
	if count != producers*perProducer {
		t.Errorf("consumed %d, want %d", count, producers*perProducer)
	}
}
