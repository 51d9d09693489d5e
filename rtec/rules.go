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
// query with the window Context — or, when the engine splices (see
// Locality), once per recomputed piece with a narrowed view of it — and
// appends all initiatedAt / terminatedAt points the rule derives there,
// in any order. Initiating F(Key)=V implicitly terminates any other value of
// F(Key) at the same instant (a fluent has one value at a time).
type SimpleFluent struct {
	// Name of the fluent (shared namespace with event types).
	Name string
	// Inputs lists the event types and fluent names the rule reads.
	// They determine the evaluation order (stratification); reading
	// anything not listed is a programming error that may observe
	// stale values.
	Inputs []string
	// Transitions derives the initiation/termination points, appending
	// them to out and returning the extended slice. out is a buffer the
	// engine owns and reuses across queries: the rule must not read,
	// modify or keep out or what it returns, only append (a size hint is
	// slices.Grow(out, n)).
	Transitions func(ctx *Context, out []Transition) []Transition
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
	// read a partial fluent, and it is no output (Builder.Output).
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

// EventRule defines a derived event type: Derive is called once per
// query and returns the instances recognised inside the window, e.g.
// the paper's delayIncrease, disagree and agree CEs.
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
	meta     []ruleMeta      // incremental-evaluation metadata, aligned with rules
	outputs  map[string]bool // derived types a Result reports (Builder.Output)
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
	outputs  []string
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

// Output declares derived types as the set's outputs — RTEC's output
// entities, what a Result reports. Every other derived type is
// internal: it reaches the rules reading it, and an internal simple
// fluent keeps its inertia, but it gets no Result.Fluents or
// Result.Derived entry and is never fresh, deduplicated or merged. A
// set that declares no outputs reports every derived type.
func (b *Builder) Output(names ...string) *Builder {
	b.outputs = append(b.outputs, names...)
	return b
}

// Compile checks the definition set (unique names, known inputs,
// acyclic dependencies, outputs that are derived and derived types that
// something reads) and produces the stratified Definitions.
func (b *Builder) Compile() (*Definitions, error) {
	d := &Definitions{
		sdeTypes: make(map[string]bool),
		names:    make(map[string]ruleKind),
		outputs:  make(map[string]bool),
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
	partial := func(r *compiledRule) bool { return r.simple != nil && r.simple.Partial }
	read := make(map[string]bool)
	for _, r := range all {
		for _, in := range r.inputs {
			if _, known := d.names[in]; !known {
				return nil, fmt.Errorf("rtec: %q depends on unknown input %q (declare SDE types with DeclareSDE)", r.name, in)
			}
			if j, isRule := index[in]; isRule && partial(&all[j]) {
				return nil, fmt.Errorf("rtec: %q reads partial fluent %q, whose intervals this engine never builds", r.name, in)
			}
			read[in] = true
		}
	}
	for _, name := range b.outputs {
		j, isRule := index[name]
		switch {
		case d.sdeTypes[name]:
			return nil, fmt.Errorf("rtec: output %q is an SDE type, not a derived one", name)
		case !isRule:
			return nil, fmt.Errorf("rtec: output %q is not defined", name)
		case partial(&all[j]):
			return nil, fmt.Errorf("rtec: output %q is a partial fluent, whose intervals this engine never builds", name)
		}
		d.outputs[name] = true
	}
	for i := range all {
		r := &all[i]
		if len(b.outputs) == 0 && !partial(r) {
			d.outputs[r.name] = true
		}
		// A partial fluent is read through Engine.Transitions.
		if !d.outputs[r.name] && !read[r.name] && !partial(r) {
			return nil, fmt.Errorf("rtec: %q is neither an output nor read by another rule", r.name)
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

// inert reports whether name is a simple fluent this set folds under
// inertia, whose intervals seed the next query (Engine.prev).
func (d *Definitions) inert(name string) bool {
	for i := range d.rules {
		if r := &d.rules[i]; r.name == name {
			return r.kind == kindSimple && !r.simple.Partial
		}
	}
	return false
}

// IsSDE reports whether name was declared as an input SDE type.
func (d *Definitions) IsSDE(name string) bool { return d.sdeTypes[name] }

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
