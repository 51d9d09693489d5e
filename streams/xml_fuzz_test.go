package streams

import (
	"bytes"
	"testing"
)

// FuzzLoadXML holds LoadXML to its contract on arbitrary flow
// definitions, resolved against the standard processor classes: it
// either refuses the document or builds the topology it declares, and
// never panics — nor sizes an allocation by an attribute it has not
// bounded.
func FuzzLoadXML(f *testing.F) {
	// examples/xmlpipeline's document (its congestion-flag class is not
	// in the standard registry, so this one is refused), a loadable
	// variant of it, a huge queue and an unknown class.
	f.Add([]byte(`
<application>
  <queue id="readings" capacity="256"/>
  <process id="ingest" input="scats" output="readings">
    <processor class="congestion-flag" density="0.35" flow="600"/>
    <processor class="drop-missing" key="density"/>
  </process>
  <process id="deliver" input="readings" output="out">
    <processor class="count" key="seq"/>
  </process>
</application>`))
	f.Add([]byte(`<application>
  <queue id="readings" capacity="256"/>
  <process id="ingest" input="scats" output="readings">
    <processor class="rename" from="raw" to="sde"/>
    <processor class="sample" every="2"/>
    <processor class="limit" count="10"/>
  </process>
  <process id="deliver" input="readings" output="out">
    <processor class="select" keys="a,b"/>
    <processor class="set" key="k" value="v"/>
  </process>
</application>`))
	f.Add([]byte(`<application><queue id="q" capacity="1000000000"/></application>`))
	f.Add([]byte(`<application><process id="p" input="scats" output="out"><processor class="nope"/></process></application>`))
	f.Fuzz(func(t *testing.T, doc []byte) {
		reg := NewRegistry()
		if err := RegisterStdProcessors(reg); err != nil {
			t.Fatal(err)
		}
		top := NewTopology()
		if err := top.AddStream("scats", NewSliceSource()); err != nil {
			t.Fatal(err)
		}
		if err := top.AddSink("out", NewCollectorSink()); err != nil {
			t.Fatal(err)
		}
		if err := LoadXML(top, reg, bytes.NewReader(doc)); err != nil {
			return
		}
		for _, q := range top.queues {
			if c := cap(q.ch); c < 1 || c > maxXMLQueueCapacity {
				t.Fatalf("loaded a queue with a %d-item buffer", c)
			}
		}
	})
}
