package rtec

import "slices"

// Incremental windowed evaluation (overlap caching).
//
// When the window slides by less than its length (Step < WM, the
// paper's Fig. 2 configuration for delayed SDEs), consecutive windows
// overlap and a full re-evaluation repeats most of the previous
// query's work. For rules with declared temporal Locality the engine
// instead splices three pieces at query time Q (previous query q0):
//
//	head   [W-1, W-1+H)   recomputed — support was truncated by the
//	                      slide (events before the new window start
//	                      have been evicted);
//	kept   [W-1+H, q0-A]  reused from the previous query's cache;
//	tail   (q0-A, Q]      recomputed — the fresh step region, plus
//	                      however far back fresh events can reach
//	                      through the rule's lookahead.
//
// where W = Q-WM+1 is the window start, H is the rule's effective
// lookback horizon and A its effective lookahead, both closed over the
// rule's transitive inputs (a rule is only as local as what it reads).
// The recomputed pieces call the rule's own function against a context
// whose event visibility is narrowed to exactly the support the piece
// needs, so the rule scans O(step) instead of O(window) events.
//
// Reuse is sound only if the cached region is bit-identical to what a
// full re-evaluation would produce. Three gates enforce that:
//
//  1. the rule (and everything it transitively reads) declares finite
//     Locality — non-local rules always recompute;
//  2. simple-fluent inputs must have H = 0: under inertia a changed
//     transition near the window start shifts values arbitrarily far
//     forward, so only head-stable fluents have stable overlap values;
//  3. SDEs of the rule's transitive input types that arrived late (at
//     or before q0) shrink the reusable region: the store's dirty
//     watermark is the earliest such arrival, and the kept region ends
//     before everything the late event can influence (floor − A).
//
// Statically determined fluents are always recomputed (interval
// algebra over in-memory lists is cheap) but participate in the
// propagation: RTEC's Table-1 constructs are pointwise in time, so
// they forward their inputs' stability unchanged.

// infTime marks an unbounded horizon. MaxTime doubles as +infinity
// throughout the interval package, so reuse it.
const infTime = MaxTime

// satAdd adds two non-negative horizons, saturating at infinity.
func satAdd(a, b Time) Time {
	if a >= infTime || b >= infTime || a > infTime-b {
		return infTime
	}
	return a + b
}

// ruleMeta is the per-rule incremental metadata computed at Compile.
type ruleMeta struct {
	// sdeDeps is the transitive set of SDE types the rule reads.
	sdeDeps map[string]bool
	// headH is the effective lookback horizon: output at times below
	// windowStart-1+headH may differ from the previous query because
	// support fell out of the window. infTime = never reusable.
	headH Time
	// lookahead is the effective lookahead: output at times above
	// lastQ-lookahead may be influenced by events of the fresh step
	// region. infTime = never reusable.
	lookahead Time
	// valueH is the stability horizon this rule contributes to its
	// readers: derived events are stable beyond headH; simple fluents
	// are stable only when headH == 0 (inertia propagates head changes
	// forward without bound); statics forward their inputs'.
	valueH Time
	// spliceable marks rules (simple or event kind) eligible for
	// overlap reuse.
	spliceable bool
}

// computeMeta derives the incremental metadata for every rule. Rules
// are already sorted by stratum, so inputs are processed before their
// readers.
func computeMeta(d *Definitions) []ruleMeta {
	byName := make(map[string]*ruleMeta, len(d.rules))
	meta := make([]ruleMeta, len(d.rules))
	for i := range d.rules {
		r := &d.rules[i]
		m := &meta[i]
		m.sdeDeps = make(map[string]bool)

		inValueH, inLookahead := Time(0), Time(0)
		for _, in := range r.inputs {
			if d.sdeTypes[in] {
				m.sdeDeps[in] = true
				continue
			}
			im := byName[in]
			if im == nil {
				continue // unreachable after Compile validation
			}
			for s := range im.sdeDeps {
				m.sdeDeps[s] = true
			}
			if im.valueH > inValueH {
				inValueH = im.valueH
			}
			if im.lookahead > inLookahead {
				inLookahead = im.lookahead
			}
		}

		switch r.kind {
		case kindStatic:
			// Recomputed every query; forwards its inputs' stability
			// (Table-1 interval constructs are pointwise in time).
			m.headH = inValueH
			m.lookahead = inLookahead
			m.valueH = inValueH
		default:
			if !r.locality.Local || r.locality.Lookback < 0 || r.locality.Lookahead < 0 {
				m.headH, m.lookahead, m.valueH = infTime, infTime, infTime
				break
			}
			m.headH = satAdd(r.locality.Lookback, inValueH)
			m.lookahead = satAdd(r.locality.Lookahead, inLookahead)
			if r.kind == kindSimple {
				if m.headH == 0 {
					m.valueH = 0
				} else {
					m.valueH = infTime
				}
			} else {
				m.valueH = m.headH
			}
			m.spliceable = m.headH < infTime && m.lookahead < infTime
		}
		byName[r.name] = m
	}
	return meta
}

// ruleCache is one rule's output from the previous query, the reusable
// half of the splice. For simple fluents it holds the transition
// points (value-defaulted, filtered to the window); for event rules
// the recognised in-window events (time-sorted).
type ruleCache struct {
	q     Time // query time the cache was computed at
	trans []Transition
	evs   []Event
}

// splicePlan describes how one rule's evaluation decomposes at query
// time q given a valid cache from lastQ.
type splicePlan struct {
	keepLo, keepHi Time // reusable output times, inclusive
	headView       Span // event visibility for the head recompute (empty = no head)
	tailView       Span // event visibility for the tail recompute
}

// planSplice decides whether rule i can reuse its cached overlap at
// query time q, and if so how. windowStart is q-WM+1.
func (e *Engine) planSplice(i int, q, windowStart Time) (splicePlan, bool) {
	var p splicePlan
	if e.opts.ForceFullRecompute || !e.started {
		return p, false
	}
	m := &e.defs.meta[i]
	if !m.spliceable {
		return p, false
	}
	cache := e.cache[e.defs.rules[i].name]
	if cache == nil || cache.q != e.lastQ {
		return p, false
	}
	p.keepLo = satAdd(windowStart-1, m.headH)
	// Cached output is reusable up to the earliest change the rule can
	// observe: the fresh step region (after lastQ) and any late SDE
	// arrival among its transitive input types, both reaching back by
	// the effective lookahead.
	hi := e.lastQ
	if floor := e.store.dirtyFloor(m.sdeDeps); floor-1 < hi {
		hi = floor - 1
	}
	p.keepHi = hi - m.lookahead
	if p.keepLo > p.keepHi {
		return p, false // no overlap worth reusing
	}
	loc := e.defs.rules[i].locality
	if m.headH > 0 {
		// Head outputs t in [windowStart-1, keepLo-1] read events up
		// to t + own lookahead.
		p.headView = Span{Start: windowStart, End: minT(q, satAdd(p.keepLo-1, loc.Lookahead)) + 1}
	}
	// Tail outputs t in (keepHi, q] read events down to t - own
	// lookback.
	tailLo := p.keepHi + 1 - loc.Lookback
	if tailLo < windowStart || loc.Lookback >= infTime {
		tailLo = windowStart
	}
	p.tailView = Span{Start: tailLo, End: q + 1}
	return p, true
}

func minT(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}

// spliceTransitions evaluates a simple fluent incrementally into out:
// cached transitions inside the reusable region plus head/tail
// recomputes against narrowed contexts, each appended by the rule and
// then filtered in place. The result is equivalent to evaluating the
// rule over the full window and is stored as the next cache.
func spliceTransitions(out []Transition, rule *compiledRule, cache *ruleCache, p splicePlan, ctx *Context, windowStart, q Time) []Transition {
	out = slices.Grow(out, len(cache.trans))
	for _, tr := range cache.trans {
		if tr.Time >= p.keepLo && tr.Time <= p.keepHi {
			out = append(out, tr)
		}
	}
	if !p.headView.Empty() {
		n := len(out)
		out = keepTransitions(rule.simple.Transitions(ctx.withView(p.headView), out), n, windowStart-1, p.keepLo-1)
	}
	n := len(out)
	return keepTransitions(rule.simple.Transitions(ctx.withView(p.tailView), out), n, p.keepHi+1, q)
}

// keepTransitions keeps trans[:n] and, filtered in place, the points of
// trans[n:] at times in [lo, hi], value-defaulted.
func keepTransitions(trans []Transition, n int, lo, hi Time) []Transition {
	out := trans[:n]
	for _, tr := range trans[n:] {
		if tr.Time >= lo && tr.Time <= hi {
			out = append(out, normTransition(tr))
		}
	}
	return out
}

// spliceEvents evaluates an event rule incrementally; the pieces are
// concatenated in time order (ties cannot straddle piece boundaries,
// and each piece is in sortEvents order, so the whole is). It also
// returns where the recomputed head ends and the recomputed tail starts.
func spliceEvents(rule *compiledRule, cache *ruleCache, p splicePlan, ctx *Context, windowStart, q Time) (out []Event, headEnd, tailStart int) {
	out = make([]Event, 0, len(cache.evs))
	if !p.headView.Empty() {
		out = append(out, deriveIn(rule, ctx.withView(p.headView), Span{Start: windowStart, End: p.keepLo})...)
	}
	headEnd = len(out)
	out = append(out, sliceSpan(cache.evs, Span{Start: max(windowStart, p.keepLo), End: p.keepHi + 1})...)
	tailStart = len(out)
	out = append(out, deriveIn(rule, ctx.withView(p.tailView), Span{Start: p.keepHi + 1, End: q + 1})...)
	return out, headEnd, tailStart
}

func normTransition(tr Transition) Transition {
	if tr.Value == "" {
		tr.Value = TrueValue
	}
	return tr
}
