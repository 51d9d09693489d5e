package rtec

import (
	"fmt"
	"sort"
	"strings"
)

// TransitionKind distinguishes initiation from termination points.
type TransitionKind int

// Transition kinds.
const (
	Initiate TransitionKind = iota
	Terminate
)

// Transition is an initiatedAt/terminatedAt point for a simple fluent:
// at Time, a period of Fluent(Key) = Value begins or ends. An empty
// Value means TrueValue.
type Transition struct {
	Kind  TransitionKind
	Key   string
	Value string
	Time  Time
}

// InitiateAt builds an initiation point for a boolean fluent.
func InitiateAt(key string, t Time) Transition {
	return Transition{Kind: Initiate, Key: key, Value: TrueValue, Time: t}
}

// TerminateAt builds a termination point for a boolean fluent.
func TerminateAt(key string, t Time) Transition {
	return Transition{Kind: Terminate, Key: key, Value: TrueValue, Time: t}
}

// Locality declares the temporal locality of a rule, which is what
// licenses the engine's incremental overlap reuse (see incremental.go).
// A rule is local when its output at time T is fully determined by the
// input events it can observe in (T-Lookback, T+Lookahead] together
// with the values of its input fluents over that same range. The zero
// value declares a rule non-local: it is re-evaluated over the whole
// window at every query, which is always safe.
//
// Declaring locality the rule does not actually have is a programming
// error of the same class as reading an undeclared input: the
// incremental path may then reuse stale results. Options.
// ForceFullRecompute disables all reuse for debugging such rules.
type Locality struct {
	// Local enables incremental reuse for the rule.
	Local bool
	// Lookback bounds how far before T an input event may influence
	// the rule's output at T.
	Lookback Time
	// Lookahead bounds how far after T an input event may influence
	// the rule's output at T (e.g. the crowd-confirmation window of
	// the paper's rule-set (4), which initiates noisy at the earlier
	// disagreement time).
	Lookahead Time
}

// Pointwise is the locality of rules whose output at T depends only on
// inputs at exactly T — threshold rules like the paper's
// scatsCongestion.
func Pointwise() Locality { return Locality{Local: true} }

// LocalWindow declares a bounded locality window around each output
// time.
func LocalWindow(lookback, lookahead Time) Locality {
	return Locality{Local: true, Lookback: lookback, Lookahead: lookahead}
}

// SimpleFluent defines a simple fluent in the sense of RTEC: its
// maximal intervals are computed from initiation and termination
// points under the law of inertia. Transitions is called once per
// query with the window Context and returns all initiatedAt /
// terminatedAt points the rule derives inside the window, in any
// order. Initiating F(Key)=V implicitly terminates any other value of
// F(Key) at the same instant (a fluent has one value at a time).
type SimpleFluent struct {
	// Name of the fluent (shared namespace with event types).
	Name string
	// Inputs lists the event types and fluent names the rule reads.
	// They determine the evaluation order (stratification); reading
	// anything not listed is a programming error that may observe
	// stale values.
	Inputs []string
	// Transitions derives the initiation/termination points. The
	// returned slice becomes the engine's (it is filtered in place).
	Transitions func(ctx *Context) []Transition
	// Locality optionally declares temporal locality, enabling
	// incremental evaluation over overlapping windows.
	Locality Locality
	// Partial declares that this engine derives only part of the
	// fluent's transition points — the rest come from other engines over
	// the rest of the input. The engine derives and splice-caches the
	// window's points exactly as for any simple fluent and hands them out
	// (Engine.Transitions), but builds no intervals, keeps no inertia
	// state and reports no Result.Fluents entry for it: whoever holds all
	// the parts folds them together with FoldTransitions. No rule may
	// read a partial fluent.
	Partial bool
}

// StaticFluent defines a statically determined fluent: its maximal
// intervals are computed directly by interval manipulation over other
// fluents and events (RTEC's union_all, intersect_all and
// relative_complement_all constructs). HoldsFor is called once per
// query and returns the interval list per fluent instance.
type StaticFluent struct {
	Name     string
	Inputs   []string
	HoldsFor func(ctx *Context) map[KV]IntervalList
}

// IntervalList re-exports interval.List for rule signatures.
type IntervalList = List

// EventRule defines a derived (output) event type: Derive is called
// once per query and returns the instances recognised inside the
// window, e.g. the paper's delayIncrease, disagree and agree CEs.
type EventRule struct {
	Name   string
	Inputs []string
	Derive func(ctx *Context) []Event
	// Locality optionally declares temporal locality, enabling
	// incremental evaluation over overlapping windows.
	Locality Locality
}

// Definitions is a compiled, stratified CE definition set. Build one
// with NewDefinitions.
type Definitions struct {
	sdeTypes map[string]bool
	rules    []compiledRule // in evaluation order
	names    map[string]ruleKind
	meta     []ruleMeta // incremental-evaluation metadata, aligned with rules
}

type ruleKind int

const (
	kindSDE ruleKind = iota
	kindSimple
	kindStatic
	kindEvent
)

type compiledRule struct {
	kind     ruleKind
	name     string
	inputs   []string
	simple   *SimpleFluent
	static   *StaticFluent
	event    *EventRule
	stratum  int
	locality Locality
}

// Builder accumulates SDE declarations and CE definitions and compiles
// them into a stratified Definitions set.
type Builder struct {
	sdeTypes []string
	simple   []SimpleFluent
	static   []StaticFluent
	events   []EventRule
}

// NewBuilder returns an empty definition builder.
func NewBuilder() *Builder { return &Builder{} }

// DeclareSDE registers the input (simple derived event) types the
// engine will receive, e.g. "move" and "traffic" in the Dublin
// deployment. Rules may list them as Inputs.
func (b *Builder) DeclareSDE(types ...string) *Builder {
	b.sdeTypes = append(b.sdeTypes, types...)
	return b
}

// Simple adds a simple fluent definition.
func (b *Builder) Simple(f SimpleFluent) *Builder {
	b.simple = append(b.simple, f)
	return b
}

// Static adds a statically determined fluent definition.
func (b *Builder) Static(f StaticFluent) *Builder {
	b.static = append(b.static, f)
	return b
}

// Event adds a derived event definition.
func (b *Builder) Event(r EventRule) *Builder {
	b.events = append(b.events, r)
	return b
}

// Compile checks the definition set (unique names, known inputs,
// acyclic dependencies) and produces the stratified Definitions.
func (b *Builder) Compile() (*Definitions, error) {
	d := &Definitions{
		sdeTypes: make(map[string]bool),
		names:    make(map[string]ruleKind),
	}
	for _, t := range b.sdeTypes {
		if _, dup := d.names[t]; dup {
			return nil, fmt.Errorf("rtec: duplicate name %q", t)
		}
		d.names[t] = kindSDE
		d.sdeTypes[t] = true
	}
	var all []compiledRule
	add := func(kind ruleKind, name string, inputs []string, cr compiledRule) error {
		if name == "" {
			return fmt.Errorf("rtec: definition with empty name")
		}
		if _, dup := d.names[name]; dup {
			return fmt.Errorf("rtec: duplicate name %q", name)
		}
		d.names[name] = kind
		cr.kind, cr.name, cr.inputs = kind, name, inputs
		all = append(all, cr)
		return nil
	}
	for i := range b.simple {
		f := &b.simple[i]
		if f.Transitions == nil {
			return nil, fmt.Errorf("rtec: simple fluent %q has no Transitions func", f.Name)
		}
		if err := add(kindSimple, f.Name, f.Inputs, compiledRule{simple: f, locality: f.Locality}); err != nil {
			return nil, err
		}
	}
	for i := range b.static {
		f := &b.static[i]
		if f.HoldsFor == nil {
			return nil, fmt.Errorf("rtec: static fluent %q has no HoldsFor func", f.Name)
		}
		if err := add(kindStatic, f.Name, f.Inputs, compiledRule{static: f}); err != nil {
			return nil, err
		}
	}
	for i := range b.events {
		r := &b.events[i]
		if r.Derive == nil {
			return nil, fmt.Errorf("rtec: event rule %q has no Derive func", r.Name)
		}
		if err := add(kindEvent, r.Name, r.Inputs, compiledRule{event: r, locality: r.Locality}); err != nil {
			return nil, err
		}
	}

	// Validate inputs and stratify with a longest-path layering over
	// the dependency DAG (SDEs are stratum 0).
	index := make(map[string]int, len(all))
	for i, r := range all {
		index[r.name] = i
	}
	for _, r := range all {
		for _, in := range r.inputs {
			if _, known := d.names[in]; !known {
				return nil, fmt.Errorf("rtec: %q depends on unknown input %q (declare SDE types with DeclareSDE)", r.name, in)
			}
			if j, isRule := index[in]; isRule && all[j].simple != nil && all[j].simple.Partial {
				return nil, fmt.Errorf("rtec: %q reads partial fluent %q, whose intervals this engine never builds", r.name, in)
			}
		}
	}
	const unset = -1
	strata := make([]int, len(all))
	for i := range strata {
		strata[i] = unset
	}
	visiting := make([]bool, len(all))
	var assign func(i int) (int, error)
	assign = func(i int) (int, error) {
		if strata[i] != unset {
			return strata[i], nil
		}
		if visiting[i] {
			return 0, fmt.Errorf("rtec: cyclic dependency through %q", all[i].name)
		}
		visiting[i] = true
		defer func() { visiting[i] = false }()
		level := 1 // rules start at stratum 1; SDEs are stratum 0
		for _, in := range all[i].inputs {
			j, isRule := index[in]
			if !isRule {
				continue // SDE, stratum 0
			}
			dep, err := assign(j)
			if err != nil {
				return 0, err
			}
			if dep+1 > level {
				level = dep + 1
			}
		}
		strata[i] = level
		return strata[i], nil
	}
	for i := range all {
		if _, err := assign(i); err != nil {
			return nil, err
		}
	}
	for i := range all {
		all[i].stratum = strata[i]
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].stratum < all[j].stratum })
	d.rules = all
	d.meta = computeMeta(d)
	return d, nil
}

// Names returns all defined names (SDEs and rules), for diagnostics.
func (d *Definitions) Names() []string {
	out := make([]string, 0, len(d.names))
	for n := range d.names {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// IsSDE reports whether name was declared as an input SDE type.
func (d *Definitions) IsSDE(name string) bool { return d.sdeTypes[name] }

// Strata returns the rule names grouped by evaluation stratum, lowest
// first, for diagnostics.
func (d *Definitions) Strata() [][]string {
	var out [][]string
	for _, r := range d.rules {
		for len(out) < r.stratum {
			out = append(out, nil)
		}
		out[r.stratum-1] = append(out[r.stratum-1], r.name)
	}
	return out
}

// Describe renders the compiled definition set — SDE vocabulary and
// rules in evaluation order with their kinds and dependencies — for
// diagnostics and documentation.
func (d *Definitions) Describe() string {
	var b strings.Builder
	var sdes []string
	for t := range d.sdeTypes {
		sdes = append(sdes, t)
	}
	sort.Strings(sdes)
	fmt.Fprintf(&b, "SDE types: %s\n", strings.Join(sdes, ", "))
	for _, r := range d.rules {
		kind := "?"
		switch r.kind {
		case kindSimple:
			kind = "simple fluent"
		case kindStatic:
			kind = "static fluent"
		case kindEvent:
			kind = "derived event"
		}
		fmt.Fprintf(&b, "stratum %d  %-24s %-13s <- %s\n",
			r.stratum, r.name, kind, strings.Join(r.inputs, ", "))
	}
	return b.String()
}
