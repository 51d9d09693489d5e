// Command figures prints the paper's crowdsourcing figures — Figure 5
// (online EM, with batch-EM and γ ablations) and Figure 6 (QEE latency)
// — then the extension tables: veracity policies and the Figure 2
// window/step ablation scored against the synthetic city's ground truth,
// worker selection, and the pipeline under chaos scored against its
// fault-free run. It takes no flags: every parameter is a row constant.
// The package's test holds every scored number to testdata/scores.json;
// the chaos table's degraded and mean-lag columns depend on scheduling
// and are not scored.
package main

import (
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
	if _, err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// tables are the figures and extension tables in print order.
var tables = []struct {
	name string
	fn   func(*table) error
}{
	{"figure5", figure5},
	{"figure6", figure6},
	{"veracity", veracity},
	{"delay", delay},
	{"selection", selection},
	{"chaos", chaos},
}

// run prints every table to out and returns the numbers they scored.
func run(out io.Writer) (scores, error) {
	s := make(scores)
	for i, tb := range tables {
		if i > 0 {
			fmt.Fprintln(out)
		}
		if err := tb.fn(&table{name: tb.name, out: out, scores: s}); err != nil {
			return nil, fmt.Errorf("%s: %w", tb.name, err)
		}
	}
	return s, nil
}

// scores holds the scored numbers under "table / row / metric": the
// shape of testdata/scores.json.
type scores map[string]float64

// table is one table being printed into out, recording what it scores.
type table struct {
	name   string
	out    io.Writer
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
