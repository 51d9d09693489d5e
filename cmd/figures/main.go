// Command figures prints every figure of the paper's evaluation —
// Figure 4 (CE recognition against working memory), Figure 5 (online
// EM, with batch-EM and γ ablations), Figure 6 (QEE latency) and
// Figures 7–9 (the street graph and the GP flow maps, written as SVGs)
// — then the extension tables: veracity policies and the Figure 2
// window/step ablation scored against the synthetic city's ground truth,
// worker selection, and the pipeline under chaos scored against its
// fault-free run. Its one flag, -out (default "."), is the directory
// the Figure 7–9 SVGs are written to; every model parameter is a row
// constant. The package's test holds every scored number to
// testdata/scores.json; Figure 4's recognition times and the chaos
// table's degraded and mean-lag columns depend on the machine or on
// scheduling and are not scored.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("figures: ")
	out := flag.String("out", ".", "directory the Figure 7–9 SVGs are written to")
	flag.Parse()
	if _, err := run(os.Stdout, *out); err != nil {
		log.Fatal(err)
	}
}

// tables are the figures and extension tables in print order.
var tables = []struct {
	name string
	fn   func(*table) error
}{
	{"figure4", figure4},
	{"figure5", figure5},
	{"figure6", figure6},
	{"figure9", figure9},
	{"veracity", veracity},
	{"delay", delay},
	{"selection", selection},
	{"chaos", chaos},
}

// run prints every table to out, writes the SVG maps into dir and
// returns the numbers the tables scored.
func run(out io.Writer, dir string) (scores, error) {
	s := make(scores)
	for i, tb := range tables {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := tb.fn(&table{name: tb.name, out: out, dir: dir, scores: s}); err != nil {
			return nil, fmt.Errorf("%s: %w", tb.name, err)
		}
	}
	return s, nil
}

// scores holds the scored numbers under "table / row / metric": the
// shape of testdata/scores.json.
type scores map[string]float64

// table is one table being printed into out, recording what it scores;
// a table that draws maps writes them into dir.
type table struct {
	name   string
	out    io.Writer
	dir    string
	scores scores
}

// grid returns a column writer over out with the header row written.
func (t *table) grid(header string) *tabwriter.Writer {
	w := tabwriter.NewWriter(t.out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, header)
	return w
}

// score formats v and records the value exactly as printed (a trailing
// % dropped) under the table's row and metric.
func (t *table) score(row, metric, format string, v float64) string {
	text := fmt.Sprintf(format, v)
	printed, err := strconv.ParseFloat(strings.TrimSuffix(text, "%"), 64)
	if err != nil {
		panic(fmt.Sprintf("figures: score format %q does not print a number: %v", format, err))
	}
	t.scores[t.name+" / "+row+" / "+metric] = printed
	return text
}
