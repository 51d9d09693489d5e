// Command benchdiff compares two sets of `go test -bench` runs of the
// same benchmarks, taken in alternation: the i-th result of a benchmark
// in the base file is paired with its i-th result in the change file.
// For every benchmark and metric it prints the base and change medians,
// the base's quartiles, the change's median difference and the pairs
// the change won. Every metric is a cost (lower wins) but the work
// counts — the metrics whose unit ends in /run — which are printed
// first, and only where the two sides differ: a change that moves a
// count does different work, and should say why.
//
// Usage:
//
//	benchdiff base.txt change.txt
//
// make bench-pair BASE=<rev> produces the two files and runs it.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// key names one metric of one benchmark.
type key struct{ bench, unit string }

// results holds every metric's values in the order the runs appeared,
// and the metrics in the order first seen.
type results struct {
	vals  map[key][]float64
	order []key
}

// parse reads benchmark result lines — a name, an iteration count, then
// value-unit pairs — and ignores every other line. The -N GOMAXPROCS
// suffix is dropped from the name.
func parse(r io.Reader) (*results, error) {
	res := &results{vals: make(map[key][]float64)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") || len(f)%2 != 0 {
			continue
		}
		if _, err := strconv.Atoi(f[1]); err != nil {
			continue
		}
		name := f[0]
		if i := strings.LastIndexByte(name, '-'); i > 0 {
			if _, err := strconv.Atoi(name[i+1:]); err == nil {
				name = name[:i]
			}
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchdiff: %s: value %q: %v", name, f[i], err)
			}
			k := key{name, f[i+1]}
			if _, ok := res.vals[k]; !ok {
				res.order = append(res.order, k)
			}
			res.vals[k] = append(res.vals[k], v)
		}
	}
	return res, sc.Err()
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	return s
}

// isCount reports whether the metric is a work count, not a cost.
func isCount(unit string) bool { return strings.HasSuffix(unit, "/run") }

// diff writes the comparison of base and change to w.
func diff(w io.Writer, base, change *results) {
	shared := slices.DeleteFunc(slices.Clone(base.order), func(k key) bool { return change.vals[k] == nil })
	moved := 0
	for _, k := range shared {
		if isCount(k.unit) && !slices.Equal(base.vals[k], change.vals[k]) {
			if moved == 0 {
				fmt.Fprintln(w, "work counts that differ:")
			}
			moved++
			fmt.Fprintf(w, "  %s %s: base %v, change %v\n", k.bench, k.unit, base.vals[k], change.vals[k])
		}
	}
	if moved > 0 {
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "%-40s %-16s %12s %26s %12s %8s %6s\n", "benchmark", "metric", "base", "base quartiles", "change", "delta", "won")
	bench := ""
	for _, k := range shared {
		if isCount(k.unit) {
			continue
		}
		b, c := base.vals[k], change.vals[k]
		bs, cs := sorted(b), sorted(c)
		bm, cm := quantile(bs, 0.5), quantile(cs, 0.5)
		won, pairs := 0, min(len(b), len(c))
		for i := 0; i < pairs; i++ {
			if c[i] < b[i] {
				won++
			}
		}
		delta := "n/a"
		if bm != 0 {
			delta = fmt.Sprintf("%+.1f%%", 100*(cm-bm)/bm)
		}
		name := k.bench
		if name == bench {
			name = ""
		}
		bench = k.bench
		fmt.Fprintf(w, "%-40s %-16s %12.4g [%11.4g, %11.4g] %12.4g %8s %3d/%-2d\n",
			name, k.unit, bm, quantile(bs, 0.25), quantile(bs, 0.75), cm, delta, won, pairs)
	}
	if len(shared) == 0 {
		fmt.Fprintln(w, "no benchmark metric in both files")
	}
}

func load(path string) (*results, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff base.txt change.txt")
		os.Exit(2)
	}
	base, err := load(os.Args[1])
	if err == nil {
		var change *results
		if change, err = load(os.Args[2]); err == nil {
			diff(os.Stdout, base, change)
			return
		}
	}
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
