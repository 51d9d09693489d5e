package streams_test

import (
	"context"
	"fmt"
	"log"
	"sort"
	"strconv"
	"strings"

	"github.com/insight-dublin/insight/dublin"
	"github.com/insight-dublin/insight/streams"
	"github.com/insight-dublin/insight/traffic"
)

const pipelineDefinition = `
<application>
  <queue id="readings" capacity="256"/>
  <process id="ingest" input="scats" output="readings">
    <processor class="congestion-flag" density="0.35" flow="600"/>
    <processor class="drop-missing" key="density"/>
  </process>
  <process id="deliver" input="readings" output="out">
    <processor class="count" key="seq"/>
  </process>
</application>`

// congestionFlag marks readings whose density is high and flow low.
// The batch path appends one bool column and passes the batch on;
// per-item records (the malformed stragglers) take the map path.
type congestionFlag struct {
	density, flow float64
}

func (c *congestionFlag) Process(it streams.Item) (streams.Item, error) {
	out := it.Clone()
	out["congested"] = it.Float("density") >= c.density && it.Float("flow") <= c.flow
	return out, nil
}

// ProcessBatch implements streams.BatchProcessor: the whole batch is
// flagged with one column append — no per-reading map clone — and
// rides on for the rest of the chain to expand lazily.
func (c *congestionFlag) ProcessBatch(b *streams.Batch) ([]streams.Item, error) {
	density := b.FloatCol("density").F
	flow := b.FloatCol("flow").F
	out := b.BoolCol("congested")
	for i := range density {
		out.AppendBool(density[i] >= c.density && flow[i] <= c.flow)
	}
	return []streams.Item{streams.BatchItem(b)}, nil
}

// Xmlpipeline: the Streams framework used the way the paper describes
// it (Section 3) — a data-flow graph declared in XML, standard
// processors for cleaning, and an application-defined processor class
// registered through the API ("adding customized processors is
// realised by implementing the respective interfaces"). The pipeline
// ingests a synthetic SCATS stream delivered as one columnar batch
// (plus a couple of malformed per-item records, as real feeds have),
// flags congested readings with a custom batch-aware processor that
// appends a column instead of cloning one map per reading, and lets
// the non-batch-aware cleaning stage receive the rows as lazily
// materialized Items — the two transport representations coexisting in
// one chain.
// Run it with: go test -run Example_xmlpipeline -v ./streams
func Example_xmlpipeline() {
	// Registry: the standard library plus our own processor class.
	reg := streams.NewRegistry()
	if err := streams.RegisterStdProcessors(reg); err != nil {
		log.Fatal(err)
	}
	err := reg.RegisterProcessor("congestion-flag", func(params map[string]string) (streams.Processor, error) {
		density, err1 := strconv.ParseFloat(params["density"], 64)
		flow, err2 := strconv.ParseFloat(params["flow"], 64)
		if err1 != nil || err2 != nil {
			return nil, fmt.Errorf("congestion-flag needs numeric density and flow attributes")
		}
		return &congestionFlag{density: density, flow: flow}, nil
	})
	if err != nil {
		log.Fatal(err)
	}

	// Input: 30 minutes of synthetic SCATS readings as one columnar
	// batch — the generator's native emission — riding the stream as a
	// single envelope item.
	city, err := dublin.NewCity(dublin.Config{Seed: 4, NumBuses: 1, NumSensors: 50})
	if err != nil {
		log.Fatal(err)
	}
	batch := streams.GetBatch(traffic.TrafficType, "scats")
	for _, sde := range city.Collect(8*3600, 8*3600+1800) {
		if sde.Event.Type != traffic.TrafficType {
			continue
		}
		density, _ := sde.Event.Float("density")
		flow, _ := sde.Event.Float("flow")
		batch.Append(int64(sde.Event.Time), int64(sde.Arrival), sde.Event.Key)
		batch.FloatCol("density").AppendFloat(density)
		batch.FloatCol("flow").AppendFloat(flow)
	}
	rows := batch.Len()
	items := []streams.Item{streams.BatchItem(batch)}
	// A couple of malformed per-item records, as real feeds have.
	items = append(items, streams.Item{"key": "broken"}, streams.Item{"key": "broken2"})

	top := streams.NewTopology()
	if err := top.AddStream("scats", streams.NewSliceSource(items...)); err != nil {
		log.Fatal(err)
	}
	sink := streams.NewCollectorSink()
	if err := top.AddSink("out", sink); err != nil {
		log.Fatal(err)
	}
	if err := streams.LoadXML(top, reg, strings.NewReader(pipelineDefinition)); err != nil {
		log.Fatal(err)
	}
	if err := top.Run(context.Background()); err != nil {
		log.Fatal(err)
	}

	congested := 0
	for _, it := range sink.Items() {
		if it.Bool("congested") {
			congested++
		}
	}
	fmt.Printf("ingested %d batched + %d stray records → %d clean readings, %d flagged congested\n",
		rows, len(items)-1, sink.Len(), congested)

	seen := map[string]bool{}
	var congestedSensors []string
	for _, it := range sink.Items() {
		if key := it.String("key"); it.Bool("congested") && !seen[key] {
			seen[key] = true
			congestedSensors = append(congestedSensors, key)
		}
	}
	if len(congestedSensors) > 0 {
		sort.Strings(congestedSensors)
		fmt.Printf("congested sensors: %s\n", strings.Join(congestedSensors, " "))
	}
	// Output:
	// ingested 249 batched + 2 stray records → 249 clean readings, 25 flagged congested
	// congested sensors: scats0006 scats0011 scats0012 scats0031 scats0032 scats0042 scats0043 scats0044
}
