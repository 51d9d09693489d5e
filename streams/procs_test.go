package streams

import (
	"context"
	"strings"
	"testing"
)

func runThrough(t *testing.T, p Processor, items ...Item) []Item {
	t.Helper()
	var out []Item
	for _, it := range items {
		got, err := p.Process(it)
		if err != nil {
			t.Fatal(err)
		}
		if got != nil {
			out = append(out, got)
		}
	}
	return out
}

func TestFilter(t *testing.T) {
	p := Filter(func(it Item) bool { return it.Float("v") > 0 })
	out := runThrough(t, p, Item{"v": 1.0}, Item{"v": -1.0}, Item{"v": 2.0})
	if len(out) != 2 {
		t.Errorf("Filter kept %d items", len(out))
	}
}

func TestMap(t *testing.T) {
	p := Map(func(it Item) Item {
		out := it.Clone()
		out["v"] = it.Float("v") * 10
		return out
	})
	out := runThrough(t, p, Item{"v": 2.0})
	if out[0].Float("v") != 20 {
		t.Errorf("Map = %v", out[0])
	}
}

func TestRename(t *testing.T) {
	p := Rename("a", "b")
	out := runThrough(t, p, Item{"a": 1, "c": 2})
	if _, ok := out[0]["a"]; ok {
		t.Error("source key should be gone")
	}
	if intOf(out[0], "b") != 1 || intOf(out[0], "c") != 2 {
		t.Errorf("Rename = %v", out[0])
	}
	// Missing source key passes through.
	src := Item{"x": 1}
	out = runThrough(t, p, src)
	if intOf(out[0], "x") != 1 {
		t.Error("item without source key must pass unchanged")
	}
}

func TestSelect(t *testing.T) {
	p := Select("a", "b")
	out := runThrough(t, p, Item{"a": 1, "b": 2, "c": 3})
	if len(out[0]) != 2 || intOf(out[0], "a") != 1 {
		t.Errorf("Select = %v", out[0])
	}
}

func TestDropMissing(t *testing.T) {
	p := DropMissing("v")
	out := runThrough(t, p, Item{"v": 1}, Item{"x": 1}, Item{"v": nil})
	if len(out) != 2 {
		t.Errorf("DropMissing kept %d", len(out))
	}
}

func TestSampleEvery(t *testing.T) {
	p := SampleEvery(3)
	items := make([]Item, 9)
	for i := range items {
		items[i] = Item{"n": i}
	}
	out := runThrough(t, p, items...)
	if len(out) != 3 {
		t.Fatalf("SampleEvery(3) kept %d of 9", len(out))
	}
	if intOf(out[0], "n") != 0 || intOf(out[1], "n") != 3 {
		t.Errorf("kept wrong items: %v", out)
	}
	if p := SampleEvery(0); p == nil {
		t.Error("degenerate n must still build")
	}
}

func TestLimitFirst(t *testing.T) {
	p := LimitFirst(2)
	items := []Item{{"n": 1}, {"n": 2}, {"n": 3}}
	out := runThrough(t, p, items...)
	if len(out) != 2 || intOf(out[1], "n") != 2 {
		t.Errorf("LimitFirst = %v", out)
	}
}

func TestSetAndCounter(t *testing.T) {
	out := runThrough(t, Set("source", "bus"), Item{"v": 1})
	if out[0].String("source") != "bus" {
		t.Errorf("Set = %v", out[0])
	}
	c := NewCounter("seq")
	out = runThrough(t, c, Item{}, Item{}, Item{})
	if c.count.Load() != 3 {
		t.Errorf("count = %d", c.count.Load())
	}
	if intOf(out[2], "seq") != 3 {
		t.Errorf("stamped sequence = %v", out[2])
	}
	silent := NewCounter("")
	out = runThrough(t, silent, Item{"v": 1})
	if len(out[0]) != 1 {
		t.Error("keyless counter must not modify items")
	}
}

func TestRegisterStdProcessorsXML(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterStdProcessors(reg); err != nil {
		t.Fatal(err)
	}
	const def = `
<application>
  <process id="clean" input="in" output="out">
    <processor class="drop-missing" key="v"/>
    <processor class="rename" from="v" to="value"/>
    <processor class="set" key="source" value="test"/>
    <processor class="sample" every="2"/>
    <processor class="limit" count="2"/>
    <processor class="select" keys="value,source"/>
    <processor class="count" key="seq"/>
  </process>
</application>`
	top := NewTopology()
	if err := top.AddStream("in", NewSliceSource(
		Item{"v": 1.0}, Item{"x": 9.0}, Item{"v": 2.0}, Item{"v": 3.0},
		Item{"v": 4.0}, Item{"v": 5.0}, Item{"v": 6.0},
	)); err != nil {
		t.Fatal(err)
	}
	sink := NewCollectorSink()
	if err := top.AddSink("out", sink); err != nil {
		t.Fatal(err)
	}
	if err := LoadXML(top, reg, strings.NewReader(def)); err != nil {
		t.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	items := sink.Items()
	// 6 items with v → sample every 2 keeps v=1,3,5 → limit 2 keeps 1,3.
	if len(items) != 2 {
		t.Fatalf("collected %v", items)
	}
	if items[0].Float("value") != 1 || items[1].Float("value") != 3 {
		t.Errorf("pipeline output = %v", items)
	}
	for i, it := range items {
		if it.String("source") != "test" {
			t.Errorf("source missing on %v", it)
		}
		// select runs before count, so seq must survive select? No:
		// count is last, so seq is stamped after selection.
		if intOf(it, "seq") != int64(i+1) {
			t.Errorf("seq = %v", it)
		}
	}
}

func TestRegisterStdProcessorsErrors(t *testing.T) {
	reg := NewRegistry()
	if err := RegisterStdProcessors(reg); err != nil {
		t.Fatal(err)
	}
	bad := []string{
		`<application><process id="p" input="in"><processor class="rename"/></process></application>`,
		`<application><process id="p" input="in"><processor class="select"/></process></application>`,
		`<application><process id="p" input="in"><processor class="drop-missing"/></process></application>`,
		`<application><process id="p" input="in"><processor class="sample" every="x"/></process></application>`,
		`<application><process id="p" input="in"><processor class="limit" count="-1"/></process></application>`,
		`<application><process id="p" input="in"><processor class="set"/></process></application>`,
	}
	for i, def := range bad {
		top := NewTopology()
		if err := top.AddStream("in", NewSliceSource()); err != nil {
			t.Fatal(err)
		}
		if err := LoadXML(top, reg, strings.NewReader(def)); err == nil {
			t.Errorf("case %d: want factory error", i)
		}
	}
}

func TestSplitComma(t *testing.T) {
	cases := map[string][]string{
		"a,b,c": {"a", "b", "c"},
		"a":     {"a"},
		"":      nil,
		"a,,b":  {"a", "b"},
	}
	for in, want := range cases {
		got := splitComma(in)
		if len(got) != len(want) {
			t.Errorf("splitComma(%q) = %v", in, got)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("splitComma(%q) = %v", in, got)
			}
		}
	}
}
