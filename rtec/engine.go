package rtec

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/insight-dublin/insight/interval"
)

// Options configures an Engine.
type Options struct {
	// WorkingMemory (WM) is the window length: at query time Q only
	// SDEs in (Q−WM, Q] are considered. Must be positive.
	WorkingMemory Time
	// Step is unread beyond refusing a negative one: Query takes each
	// query time explicitly, and the step between them is the caller's
	// (a WM larger than the step is what lets delayed SDEs be
	// incorporated, Fig. 2). It stays so cmd/e2ebench's literal
	// compiles.
	Step Time
	// Profile makes every Query record per-rule evaluation times in
	// Result.RuleCosts and allocation totals in Stats.AllocBytes, for
	// finding the expensive CE definitions.
	Profile bool
	// ForceFullRecompute disables the incremental overlap reuse
	// (see incremental.go): every rule is re-evaluated over the whole
	// window at every query, exactly like the original engine. Use it
	// to debug a rule whose declared Locality is suspect — the
	// incremental and full paths must produce identical results.
	//lint:allow unusedapi the full-recompute baseline the incremental engine is measured and tested against
	ForceFullRecompute bool
	// RuleWorkers bounds the goroutines evaluating independent rules
	// of one stratum concurrently. 0 means GOMAXPROCS; 1 forces
	// serial evaluation. Strata remain barriers either way.
	RuleWorkers int
	// Store is ignored: working memory is always the column store
	// (colstore.go).
	//
	// Deprecated: one store; accepted and ignored so existing literals
	// compile.
	//lint:allow unusedapi cmd/e2ebench's probe literal sets it; nothing reads it, by design
	Store StoreKind
}

// StoreKind named a working-memory implementation.
//
// Deprecated: one store; accepted and ignored so existing literals
// compile.
type StoreKind uint8

// The store kinds Options.Store once chose between.
//
// Deprecated: one store; accepted and ignored so existing literals
// compile.
const (
	StoreColumn StoreKind = iota
	StoreRow
)

// Engine is a windowed RTEC evaluator. It accumulates SDEs as they
// arrive (possibly delayed and out of order) and computes, at each
// query time, the maximal intervals of every defined fluent and the
// occurrences of every derived event type within the working memory.
//
// An Engine is not safe for concurrent use; route the stream over
// several engines (see Fanout) for parallel recognition.
type Engine struct {
	defs *Definitions //state:transient compiled rule set, supplied at construction; Restore requires an identically-built engine
	opts Options      //state:transient config, supplied at construction

	store   *columnStore //state:derived rebuilt from the WAL by recovery
	lastQ   Time
	started bool

	// prev holds, per simple fluent, the un-clipped maximal interval
	// lists from the previous query. They seed the law of inertia at
	// the next window start.
	prev map[string]map[KV]List

	// cache holds, per local rule, the previous query's output for
	// overlap reuse (see incremental.go). Deliberately not captured:
	// a restored engine's first query falls back to a full recompute.
	//state:derived overlap cache, repopulated by the next query
	cache map[string]*ruleCache

	// seen tracks output event instances already reported, for
	// Result.Fresh. Pruned as instances fall out of the window.
	seen *seenSet

	// spare holds, per rule (simple fluents only), the transition
	// buffer the next query hands the rule: the splice cache the last
	// query superseded; use, what the rule asks of a buffer per point it
	// keeps, by which spareOf judges the spare. folds holds, per
	// rule, the scratch of its fold. Nothing reachable from a Result
	// points into spare or folds.
	spare [][]Transition //state:transient reusable scratch
	use   []spareUse     //state:transient sizing of the reusable scratch
	folds []foldScratch  //state:transient reusable scratch

	// rowScratch is the reusable admitted-row buffer of inputBlock;
	// sortKeys and rowCopy are the reusable buffers of its packed
	// time sort.
	rowScratch []int32  //state:transient reusable scratch
	sortKeys   []uint64 //state:transient reusable scratch
	rowCopy    []int32  //state:transient reusable scratch

	// inserted counts the SDEs filed since the last query, for
	// Stats.InsertedRows.
	inserted int //state:transient work counter, reset by every query
}

// NewEngine builds an engine over a compiled definition set.
func NewEngine(defs *Definitions, opts Options) (*Engine, error) {
	if defs == nil {
		return nil, fmt.Errorf("rtec: nil definitions")
	}
	if opts.WorkingMemory <= 0 {
		return nil, fmt.Errorf("rtec: working memory must be positive, got %d", opts.WorkingMemory)
	}
	if opts.Step < 0 {
		return nil, fmt.Errorf("rtec: step must be non-negative, got %d", opts.Step)
	}
	if opts.RuleWorkers < 0 {
		return nil, fmt.Errorf("rtec: rule workers must be non-negative, got %d", opts.RuleWorkers)
	}
	return &Engine{
		defs:  defs,
		opts:  opts,
		store: newColumnStore(),
		prev:  make(map[string]map[KV]List),
		cache: make(map[string]*ruleCache),
		seen:  newSeenSet(),
		spare: make([][]Transition, len(defs.rules)),
		use:   make([]spareUse, len(defs.rules)),
		folds: make([]foldScratch, len(defs.rules)),
	}, nil
}

// Input delivers SDEs to the engine. Events may arrive in any order
// and with delays; an event participates in every query whose window
// contains its occurrence time, provided it has arrived by then.
// Events of undeclared types are rejected, and the whole batch is
// rejected atomically: either every event is filed or none is.
func (e *Engine) Input(events ...Event) error {
	for _, ev := range events {
		if !e.defs.IsSDE(ev.Type) {
			return fmt.Errorf("rtec: event type %q was not declared as an SDE", ev.Type)
		}
	}
	for _, ev := range events {
		if e.started && ev.Time <= e.lastQ-e.opts.WorkingMemory {
			continue // too old to ever appear in a window again
		}
		// Events landing at or before the last query time arrive late:
		// an earlier query already evaluated that region, so cached
		// overlap results touching it are stale.
		e.store.insert(ev, e.started && ev.Time <= e.lastQ)
		e.inserted++
	}
	return nil
}

// InputBlockRows delivers the given rows of a columnar batch of SDEs
// (nil: every row), filed in the given order with exactly the
// semantics of Input — rows too old to ever appear in a window again
// are skipped, rows at or before the last query time are marked late.
// The engine copies the admitted rows into a block it owns, so the
// caller may reuse b immediately.
func (e *Engine) InputBlockRows(b *Block, rows []int32) error {
	if !e.defs.IsSDE(b.Type) {
		return fmt.Errorf("rtec: event type %q was not declared as an SDE", b.Type)
	}
	tooOld := e.lastQ - e.opts.WorkingMemory
	e.rowScratch = e.rowScratch[:0]
	if rows == nil {
		n := b.Len()
		for i := 0; i < n; i++ {
			if e.started && Time(b.Times[i]) <= tooOld {
				continue // too old to ever appear in a window again
			}
			e.rowScratch = append(e.rowScratch, int32(i))
		}
	} else {
		for _, r := range rows {
			if e.started && Time(b.Times[r]) <= tooOld {
				continue
			}
			e.rowScratch = append(e.rowScratch, r)
		}
	}
	if len(e.rowScratch) == 0 {
		return nil
	}
	// Sort the admitted rows by occurrence time, stably, so they meet
	// insertRows' contract. Delivery (arrival) order is
	// preserved on ties, and since a bucket's time-sorted
	// arrival-stable order is unique, the store ends up bit-identical
	// to per-row insertion. Mediator jitter is bounded, so most blocks
	// arrive already sorted and the sort is a single scan.
	if !timeSorted(e.rowScratch, b.Times) {
		sortByTime(e.rowScratch, b.Times, &e.sortKeys, &e.rowCopy)
	}
	e.store.insertRows(b, e.rowScratch, e.started, e.lastQ)
	e.inserted += len(e.rowScratch)
	return nil
}

// timeSorted reports whether the row indexes rs are in times order.
func timeSorted(rs []int32, times []int64) bool {
	for i := 1; i < len(rs); i++ {
		if times[rs[i-1]] > times[rs[i]] {
			return false
		}
	}
	return true
}

// sortByTime stably sorts the row indexes rs by times[r]. The hot path
// packs (time − minTime, position) pairs into uint64 keys and sorts
// those — branch-predictable integer comparisons, no closure calls —
// with the position in the low bits carrying the stability tie-break;
// keys and cp are its reusable buffers. Runs whose time span overflows
// the packing (44 bits of delta, 20 bits of position — never with
// bounded mediator jitter) fall back to the stable comparison sort.
func sortByTime(rs []int32, times []int64, keys *[]uint64, cp *[]int32) {
	minT := times[rs[0]]
	maxT := minT
	for _, r := range rs[1:] {
		if t := times[r]; t < minT {
			minT = t
		} else if t > maxT {
			maxT = t
		}
	}
	const posBits = 20
	if len(rs) >= 1<<posBits || uint64(maxT-minT) >= 1<<(64-posBits) {
		sort.SliceStable(rs, func(i, j int) bool { return times[rs[i]] < times[rs[j]] })
		return
	}
	ks := (*keys)[:0]
	for j, r := range rs {
		ks = append(ks, uint64(times[r]-minT)<<posBits|uint64(j))
	}
	slices.Sort(ks)
	*keys = ks
	*cp = append((*cp)[:0], rs...)
	for j, k := range ks {
		rs[j] = (*cp)[k&(1<<posBits-1)]
	}
}

// Result is the outcome of one query-time evaluation.
type Result struct {
	// Q is the query time and Window the working memory span
	// [Q−WM+1, Q+1).
	Q      Time
	Window Span
	// Fluents holds, per output fluent (Builder.Output) and instance,
	// the maximal intervals clipped to the window.
	Fluents map[string]map[KV]List
	// Derived holds the output events recognised in the window, per
	// event type, time-sorted.
	Derived map[string][]Event
	// Fresh lists the output events that no earlier query reported,
	// time-sorted — what a downstream consumer (e.g. the crowdsourcing
	// component) should act on.
	Fresh []Event
	// Stats summarises the evaluation.
	Stats Stats
	// RuleCosts holds per-rule evaluation times when the engine runs
	// with Options.Profile; nil otherwise.
	RuleCosts map[string]time.Duration
}

// Stats summarises one evaluation.
type Stats struct {
	InputEvents   int           // SDEs inside the window
	DerivedEvents int           // output event instances recognised
	FluentPeriods int           // maximal intervals across the output fluents
	Elapsed       time.Duration // wall-clock evaluation time
	// AllocBytes is the heap allocated during the evaluation
	// (cumulative TotalAlloc delta). Recorded only under
	// Options.Profile; 0 otherwise.
	AllocBytes uint64
	// ResidentBytes estimates the heap resident in the SDE store's
	// long-lived structures after eviction (see columnStore). Recorded
	// only under Options.Profile; 0 otherwise.
	ResidentBytes uint64
	// EvalGoroutines is the peak number of goroutines that evaluated
	// rules concurrently (1 when every stratum ran serially).
	EvalGoroutines int
	// Joins is what the rules reported through Context.CountJoins.
	Joins int64
	// InsertedRows counts the SDEs the engine filed into its working
	// memory since the previous query (rows too old for any window are
	// not filed).
	InsertedRows int
}

// HoldsAt reports whether a boolean fluent instance holds at t
// according to this result.
//
//lint:allow unusedapi reads a boolean fluent off a result; Example_crowdresolve and the rule tests use it
func (r *Result) HoldsAt(fluent, key string, t Time) bool {
	m := r.Fluents[fluent]
	if m == nil {
		return false
	}
	return m[KV{Key: key, Value: TrueValue}].Contains(t)
}

// Intervals returns the clipped maximal intervals of a boolean fluent
// instance in this result.
//
//lint:allow unusedapi reads a boolean fluent off a result; Example_crowdresolve and the rule tests use it
func (r *Result) Intervals(fluent, key string) List {
	m := r.Fluents[fluent]
	if m == nil {
		return nil
	}
	return m[KV{Key: key, Value: TrueValue}]
}

// ruleOutput collects what one rule evaluation produced, so concurrent
// evaluation can defer every shared-state mutation to the stratum
// barrier and apply it in definition order (deterministic regardless
// of goroutine scheduling).
type ruleOutput struct {
	trans  []Transition // simple: window-filtered transition points (next cache)
	grew   bool         // simple: the rule grew the buffer it was handed
	full   map[KV]List  // simple: un-clipped maximal intervals
	static map[KV]List  // static: normalised instance intervals
	events []Event      // event: in-window recognised instances, in sortEvents order
	// events[:headEnd] and events[tailStart:] were derived by this query;
	// what lies between was spliced in from the previous query's cache.
	headEnd, tailStart int
}

// Query evaluates all CE definitions at query time q. Query times must
// be strictly increasing. SDEs that took place before or on q−WM are
// discarded permanently (RTEC's windowing); delayed SDEs inside the
// window are incorporated by re-evaluating the affected region —
// either the whole window, or, for rules with declared Locality and a
// clean overlap, just the head/tail slices around the cached middle
// (see incremental.go).
func (e *Engine) Query(q Time) (*Result, error) {
	if e.started && q <= e.lastQ {
		return nil, fmt.Errorf("rtec: query times must increase (got %d after %d)", q, e.lastQ)
	}
	begin := time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.Elapsed, never the recognition result
	var memBefore runtime.MemStats
	if e.opts.Profile {
		runtime.ReadMemStats(&memBefore)
	}
	wm := e.opts.WorkingMemory
	windowStart := q - wm + 1
	window := Span{Start: windowStart, End: q + 1}

	// Discard SDEs at or before q−WM. SDEs after q stay in the store
	// but are hidden by the context view (they have not happened yet
	// from this query's standpoint).
	e.store.evict(q - wm)
	ctx := newStoreContext(q, window, e.store)

	res := &Result{
		Q:       q,
		Window:  window,
		Fluents: make(map[string]map[KV]List),
		Derived: make(map[string][]Event),
	}
	newPrev := make(map[string]map[KV]List, len(e.prev))
	newCache := make(map[string]*ruleCache, len(e.cache))
	if e.opts.Profile {
		res.RuleCosts = make(map[string]time.Duration, len(e.defs.rules))
	}
	for typ := range e.defs.sdeTypes {
		if b := e.store.bucket(typ); b != nil {
			res.Stats.InputEvents += b.countInSpan(ctx.view)
		}
	}

	workers := e.opts.RuleWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	outs := make([]ruleOutput, len(e.defs.rules))
	var costMu sync.Mutex

	evalOne := func(i int) {
		rule := &e.defs.rules[i]
		var ruleStart time.Time
		if e.opts.Profile {
			ruleStart = time.Now() //lint:allow nodeterminism wall-clock feeds only Stats.RuleCosts profiling, never the recognition result
		}
		switch rule.kind {
		case kindSimple:
			var trans []Transition
			buf := e.spare[i][:0]
			e.spare[i] = nil
			if p, ok := e.planSplice(i, q, windowStart); ok {
				trans = spliceTransitions(buf, rule, e.cache[rule.name], p, ctx, windowStart, q)
			} else {
				trans = keepTransitions(rule.simple.Transitions(ctx, buf), 0, windowStart-1, q)
			}
			if rule.simple.Partial {
				// Only the splice cache can still hold points at
				// windowStart−1 (the events behind them are evicted), so an
				// engine that recomputed in full has lost its share of that
				// instant while one that spliced has not. Their effect is in
				// the folder's inertia seed already; handing out a subset
				// would override it.
				trans = slices.DeleteFunc(trans, func(tr Transition) bool { return tr.Time < windowStart })
			} else {
				outs[i].full = e.folds[i].fold(e.prev[rule.name], window, q, trans)
			}
			outs[i].trans = trans
			outs[i].grew = cap(trans) > cap(buf)
		case kindStatic:
			inst := rule.static.HoldsFor(ctx)
			norm := make(map[KV]List, len(inst))
			for kv, l := range inst {
				if kv.Value == "" {
					kv.Value = TrueValue
				}
				if !l.Valid() {
					l = interval.Normalize(l)
				}
				if len(l) > 0 {
					norm[kv] = l
				}
			}
			outs[i].static = norm
		case kindEvent:
			if p, ok := e.planSplice(i, q, windowStart); ok {
				outs[i].events, outs[i].headEnd, outs[i].tailStart = spliceEvents(rule, e.cache[rule.name], p, ctx, windowStart, q)
			} else {
				evs := deriveIn(rule, ctx, window)
				outs[i].events, outs[i].headEnd, outs[i].tailStart = evs, len(evs), len(evs)
			}
		}
		if e.opts.Profile {
			d := time.Since(ruleStart)
			costMu.Lock()
			res.RuleCosts[rule.name] += d
			costMu.Unlock()
		}
	}

	// Evaluate stratum by stratum (rules are sorted by stratum).
	// Within a stratum rules never read each other, so they run
	// concurrently on a bounded pool; the stratum barrier then applies
	// their outputs to the shared context in definition order.
	res.Stats.EvalGoroutines = 1
	for lo := 0; lo < len(e.defs.rules); {
		hi := lo + 1
		for hi < len(e.defs.rules) && e.defs.rules[hi].stratum == e.defs.rules[lo].stratum {
			hi++
		}
		if par := min(workers, hi-lo); par > 1 {
			if par > res.Stats.EvalGoroutines {
				res.Stats.EvalGoroutines = par
			}
			idx := make(chan int, hi-lo)
			for i := lo; i < hi; i++ {
				idx <- i
			}
			close(idx)
			var wg sync.WaitGroup
			wg.Add(par)
			for w := 0; w < par; w++ {
				go func() {
					defer wg.Done()
					for i := range idx {
						evalOne(i)
					}
				}()
			}
			wg.Wait()
		} else {
			for i := lo; i < hi; i++ {
				evalOne(i)
			}
		}
		for i := lo; i < hi; i++ {
			rule := &e.defs.rules[i]
			switch rule.kind {
			case kindSimple:
				kept := len(outs[i].trans)
				if outs[i].grew {
					e.use[i] = spareUse{asked: cap(outs[i].trans), kept: kept}
				}
				if old := e.cache[rule.name]; old != nil {
					e.spare[i] = spareOf(old.trans, e.use[i].of(kept))
				}
				newCache[rule.name] = &ruleCache{q: q, trans: outs[i].trans}
				if rule.simple.Partial {
					break // points only: the fold happens where all parts meet
				}
				full := outs[i].full
				ctx.setFluent(rule.name, full)
				newPrev[rule.name] = full
				if e.defs.outputs[rule.name] {
					res.Fluents[rule.name] = ClipInstances(full, window)
				}
			case kindStatic:
				ctx.setFluent(rule.name, outs[i].static)
				if e.defs.outputs[rule.name] {
					res.Fluents[rule.name] = ClipInstances(outs[i].static, window)
				}
			case kindEvent:
				ctx.addEvents(rule.name, outs[i].events)
				if e.defs.outputs[rule.name] {
					res.Derived[rule.name] = outs[i].events
				}
				newCache[rule.name] = &ruleCache{q: q, evs: outs[i].events}
			}
		}
		lo = hi
	}

	// Fresh output events: not seen at any earlier query time. Only
	// what this query derived is probed — events spliced in from the
	// cache were filed by the query that derived them. Internal events
	// are never reported, so never filed.
	var fresh [][]Event // per output event rule, in sortEvents order
	for i := range e.defs.rules {
		if o, r := &outs[i], &e.defs.rules[i]; r.kind == kindEvent && e.defs.outputs[r.name] {
			derived := len(o.events) - (o.tailStart - o.headEnd)
			run := e.appendFresh(make([]Event, 0, derived), o.events[:o.headEnd])
			fresh = append(fresh, e.appendFresh(run, o.events[o.tailStart:]))
		}
	}
	res.Fresh = mergeEvents(fresh)
	// Prune the seen set as instances fall out of reach.
	e.seen.Prune(q - wm)

	for _, evs := range res.Derived {
		res.Stats.DerivedEvents += len(evs)
	}
	for _, m := range res.Fluents {
		for _, l := range m {
			res.Stats.FluentPeriods += len(l)
		}
	}
	res.Stats.Joins = ctx.joins.Load()
	res.Stats.InsertedRows, e.inserted = e.inserted, 0
	res.Stats.Elapsed = time.Since(begin)
	if e.opts.Profile {
		var memAfter runtime.MemStats
		runtime.ReadMemStats(&memAfter)
		res.Stats.AllocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
		res.Stats.ResidentBytes = e.store.residentBytes()
	}

	e.prev = newPrev
	e.cache = newCache
	e.store.clearDirty()
	e.lastQ = q
	e.started = true
	return res, nil
}

// spareOf returns a superseded splice cache for reuse as the next
// query's transition buffer, or nil when it is more than four times
// larger than use, what the rule asks of it: one burst must not pin its
// high-water mark.
func spareOf(trans []Transition, use int) []Transition {
	if cap(trans) > scratchInt32Floor && cap(trans) > 4*use {
		return nil
	}
	return trans
}

// spareUse is what a simple fluent asked of its transition buffer the
// last time it grew one: the capacity it grew it to and the points it
// kept. A rule's size hint shows only when the buffer grows, and it may
// reserve more than the rule keeps — busCongestion reserves a slot per
// move in view and keeps the third of them close to an area — so the
// points alone undercount it, and a buffer sized by the hint sits at 3.4
// to 4.2 times the points of every later query.
type spareUse struct{ asked, kept int }

// of returns what the rule asks of a buffer in a query that keeps n
// points: n scaled by the capacity per kept point it last grew a buffer
// to (n itself before it ever did).
func (u spareUse) of(n int) int {
	if u.kept == 0 {
		return n
	}
	return n * u.asked / u.kept
}

// deriveIn runs an event rule against ctx and returns the instances
// inside span, typed and in sortEvents order (the rule's own slice,
// filtered in place).
func deriveIn(rule *compiledRule, ctx *Context, span Span) []Event {
	evs := rule.event.Derive(ctx)
	out := evs[:0]
	for _, ev := range evs {
		if span.Contains(ev.Time) {
			ev.Type = rule.name
			out = append(out, ev)
		}
	}
	sortEvents(out)
	return out
}

// appendFresh appends to fresh the events of evs — one rule's output,
// in sortEvents order — whose identity (type, key, time) no earlier
// query reported, and files those identities. When the same identity is
// derived more than once in one query with different attributes — e.g.
// two buses disagreeing with the same intersection at the same second —
// the derivations are adjacent, and the survivor is the one with the
// smallest canonical attribute rendering, not whichever happened to be
// derived first: that makes the choice independent of derivation
// interleaving, so a sharded tier collapsing per-shard fresh sets picks
// the same survivor this single engine does (see CanonicalAttrs).
func (e *Engine) appendFresh(fresh, evs []Event) []Event {
	for lo := 0; lo < len(evs); {
		hi := lo + 1
		for hi < len(evs) && evs[hi].Time == evs[lo].Time && evs[hi].Key == evs[lo].Key {
			hi++
		}
		if e.seen.Add(evs[lo].Type, evs[lo].Key, evs[lo].Time) {
			fresh = append(fresh, evs[lo+CanonicalSurvivor(evs[lo:hi])])
		}
		lo = hi
	}
	return fresh
}

// Reported reports whether some query of this engine already returned
// the identity (typ, key, t) in Result.Fresh and it has not yet left
// the working memory. It only reads: safe to call between queries.
func (e *Engine) Reported(typ, key string, t Time) bool {
	return e.seen.Has(typ, key, t)
}

// Transitions returns the transition points the last Query derived for
// a simple fluent, value-defaulted and restricted to what that query's
// window can observe — for a partial fluent (SimpleFluent.Partial), the
// engine's whole output for it, all at times inside the window. The
// slice is the engine's own splice cache, valid until the next Query:
// read it, do not modify it, and copy what must outlive that Query — the
// query after it refills the same memory. Nil before the first query
// and right after Restore.
func (e *Engine) Transitions(fluent string) []Transition {
	if c := e.cache[fluent]; c != nil {
		return c.trans
	}
	return nil
}
