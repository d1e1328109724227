// Package stream is the incremental inference engine: a live RIB fed
// by collector route events (announce / withdraw per vantage point),
// folded continuously into the same refcounted corpus aggregates the
// batch pipeline reads, and committed on demand into immutable epoch
// snapshots.
//
// The equivalence contract — proven by internal/streamtest's
// differential harness — is that after any sequence of route events,
// Commit produces a warehouse.Snapshot bit-identical to running the
// full batch pipeline (sanitize → 11-step inference → cone crediting →
// snapshot composition) over a corpus holding exactly the currently
// announced routes. The argument has three legs:
//
//  1. The corpus aggregates (core.CorpusIndex) are commutative
//     refcounts: applying announce/withdraw deltas in any order leaves
//     the same key sets as folding the equivalent batch corpus (batch
//     folds each distinct hop sequence once, the engine each entry, so
//     raw counts differ), and inference reads only key presence and
//     distinct-neighbour counts — so core.InferIndexed, the one shared
//     engine both paths execute, sees identical inputs.
//  2. Cone credits (cone.PairCounts) are commutative refcounts of the
//     same crediting walk the batch engine shards; patches read final
//     refcount state, so within-epoch event order cannot matter.
//  3. The dirty-region rule is conservative: a changed clique re-flags
//     every path and rebuilds the kept layer and credits from scratch;
//     an unchanged clique confines re-crediting to paths containing a
//     link whose inferred relationship changed — and a path's credit
//     walk reads only its own links' relationships, so unaffected
//     paths contribute identically by construction.
package stream

import (
	"context"
	"net/netip"
	"sync"
	"time"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/cone"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/oplog"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// Options configures an Engine.
type Options struct {
	// IXPASes is forwarded to per-path sanitization (step 1).
	IXPASes map[uint32]bool
	// Infer configures the 11-step inference shared with the batch
	// path. Sanitize is ignored: the engine sanitizes per event.
	Infer core.Options
	// Workers bounds the parallel cone passes at commit (<= 0 selects
	// GOMAXPROCS); worker count never changes a committed snapshot.
	Workers int
	// Journal, when non-nil, receives one stream.commit event per
	// epoch carrying the CommitReport's headline fields. Journaling is
	// instrumentation only: it never influences what the engine
	// computes.
	Journal *oplog.Journal
}

// Stats counts what the engine has done — the differential harness
// asserts Patched > 0 so "incremental" is a proven property, not a
// label on a hidden full re-run.
type Stats struct {
	Epochs       int // Commit calls
	FullRebuilds int // epochs that re-flagged every path (clique changed)
	FullSlabs    int // epochs that rebuilt the cone slab (rebuild or AS set changed)
	Patched      int // epochs that patched the previous slab in place
	Reused       int // epochs that reused the previous slab untouched
	Entries      int // live distinct paths
	RIBRoutes    int // live (collector, vp, prefix) routes
}

// ribKey identifies one vantage point's route to one prefix — the unit
// BGP announce/withdraw semantics operate on.
type ribKey struct {
	collector string
	vp        uint32
	prefix    netip.Prefix
}

// entryKey identifies one distinct corpus row: Sanitize collapses
// duplicate (collector, prefix, cleaned-path) rows, so the engine
// refcounts them.
type entryKey struct {
	collector string
	prefix    netip.Prefix
	hops      string // cleaned ASNs, packed big-endian
}

// entry is one distinct sanitized path currently announced by refs
// vantage-point routes.
type entry struct {
	path     paths.Path
	refs     int
	poisoned bool // under the last committed clique
	credited bool // currently counted in the cone credit table
}

// Engine is the incremental inference state machine. Announce and
// Withdraw fold route events into the corpus aggregates; Commit runs
// the affected region of the inference and returns the epoch snapshot.
// All methods are safe for concurrent use; Commit serializes against
// event ingestion.
type Engine struct {
	mu sync.Mutex
	// opts is immutable after New and deliberately NOT guarded:
	// Announce reads opts.IXPASes before taking the lock.
	opts Options

	//asrank:guardedby mu
	ix *core.CorpusIndex
	//asrank:guardedby mu
	rib map[ribKey]*entry // nil value: announced but dropped by sanitize
	//asrank:guardedby mu
	entries map[entryKey]*entry
	//asrank:guardedby mu
	linkIndex map[paths.Link]map[*entry]struct{} // kept entries by adjacency

	//asrank:guardedby mu
	pc *cone.PairCounts
	//asrank:guardedby mu
	pfxRef map[pfxKey]int
	//asrank:guardedby mu
	pfxCount map[uint32]int

	// Last committed epoch state.

	//asrank:guardedby mu
	clique []uint32
	//asrank:guardedby mu
	cliqueSet map[uint32]bool
	//asrank:guardedby mu
	rels map[paths.Link]topology.Relationship
	//asrank:guardedby mu
	prevIdx *asindex.Index
	//asrank:guardedby mu
	prevSlab []uint64

	//asrank:guardedby mu
	pendingCredit map[*entry]struct{} // kept entries not yet credited
	//asrank:guardedby mu
	uncredit []paths.Path // ex-credited paths to remove under the old relationships

	//asrank:guardedby mu
	stats Stats

	// Provenance: the trailing commit reports (/debug/epochs) and the
	// between-commit event accounting that feeds them.

	//asrank:guardedby mu
	reports []CommitReport
	//asrank:guardedby mu
	pendingEvents int // route events folded since the last commit
	//asrank:guardedby mu
	firstPending time.Time // arrival of the oldest unserved event
}

type pfxKey struct {
	origin uint32
	prefix netip.Prefix
}

// New returns an empty engine.
func New(opts Options) *Engine {
	return &Engine{
		opts:          opts,
		ix:            core.NewCorpusIndex(),
		rib:           make(map[ribKey]*entry),
		entries:       make(map[entryKey]*entry),
		linkIndex:     make(map[paths.Link]map[*entry]struct{}),
		pc:            cone.NewPairCounts(),
		pfxRef:        make(map[pfxKey]int),
		pfxCount:      make(map[uint32]int),
		cliqueSet:     map[uint32]bool{},
		rels:          map[paths.Link]topology.Relationship{},
		pendingCredit: make(map[*entry]struct{}),
	}
}

func hopsKey(asns []uint32) string {
	b := make([]byte, 0, len(asns)*4)
	for _, a := range asns {
		b = append(b, byte(a>>24), byte(a>>16), byte(a>>8), byte(a))
	}
	return string(b)
}

// Announce folds one route announcement: vantage point vp at the named
// collector now reaches prefix via asns (raw wire hops; the engine
// sanitizes). A re-announcement for the same (collector, vp, prefix)
// implicitly withdraws the previous route, per BGP semantics.
func (e *Engine) Announce(collector string, vp uint32, prefix netip.Prefix, asns []uint32) {
	cleaned, keep := paths.SanitizeOne(asns, e.opts.IXPASes)

	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	rk := ribKey{collector: collector, vp: vp, prefix: prefix}
	old, had := e.rib[rk]
	if !keep {
		// Announced but not corpus-worthy: remember the slot so a later
		// withdraw is a no-op instead of a miss.
		if had && old != nil {
			e.releaseLocked(old)
		}
		e.rib[rk] = nil
		return
	}
	ek := entryKey{collector: collector, prefix: prefix, hops: hopsKey(cleaned)}
	if had && old != nil {
		if keyOf(old) == ek {
			return // same route re-announced
		}
		e.releaseLocked(old)
	}
	e.rib[rk] = e.acquireLocked(ek, paths.Path{Collector: collector, Prefix: prefix, ASNs: cleaned})
}

// Withdraw folds one route withdrawal. Withdrawing a prefix the
// vantage point never announced is a no-op, per BGP semantics.
func (e *Engine) Withdraw(collector string, vp uint32, prefix netip.Prefix) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.noteEventLocked()
	rk := ribKey{collector: collector, vp: vp, prefix: prefix}
	old, had := e.rib[rk]
	if !had {
		return
	}
	delete(e.rib, rk)
	if old != nil {
		e.releaseLocked(old)
	}
}

// noteEventLocked accounts one route event for the next CommitReport:
// the event count and the arrival time of the oldest unserved event
// (the update-to-serve watermark's far end). Instrumentation only.
func (e *Engine) noteEventLocked() {
	e.pendingEvents++
	if e.firstPending.IsZero() {
		//lint:ignore nodeterminismleak watermark timestamp feeds only the commit report's latency figure, never inference
		e.firstPending = time.Now()
	}
}

func keyOf(en *entry) entryKey {
	return entryKey{collector: en.path.Collector, prefix: en.path.Prefix, hops: hopsKey(en.path.ASNs)}
}

// acquireLocked bumps (or creates) the distinct-path entry for ek.
func (e *Engine) acquireLocked(ek entryKey, p paths.Path) *entry {
	if en, ok := e.entries[ek]; ok {
		en.refs++
		return en
	}
	en := &entry{path: p, refs: 1}
	e.entries[ek] = en
	e.ix.AddPath(p.ASNs, 1)
	en.poisoned = core.Poisoned(p.ASNs, e.cliqueSet)
	if !en.poisoned {
		e.keepLocked(en)
	}
	return en
}

// releaseLocked drops one reference, retiring the entry at zero.
func (e *Engine) releaseLocked(en *entry) {
	en.refs--
	if en.refs > 0 {
		return
	}
	delete(e.entries, keyOf(en))
	e.ix.AddPath(en.path.ASNs, -1)
	if !en.poisoned {
		e.unkeepLocked(en)
	}
}

// keepLocked admits an entry to the kept (post-discard) layer: corpus
// aggregates, link index, prefix counts, and the credit queue.
func (e *Engine) keepLocked(en *entry) {
	e.ix.AddKept(en.path.ASNs, 1)
	for i := 0; i+1 < len(en.path.ASNs); i++ {
		l := paths.NewLink(en.path.ASNs[i], en.path.ASNs[i+1])
		set, ok := e.linkIndex[l]
		if !ok {
			set = make(map[*entry]struct{})
			e.linkIndex[l] = set
		}
		set[en] = struct{}{}
	}
	if en.path.Prefix.IsValid() {
		k := pfxKey{origin: en.path.Origin(), prefix: en.path.Prefix}
		e.pfxRef[k]++
		if e.pfxRef[k] == 1 {
			e.pfxCount[k.origin]++
		}
	}
	e.pendingCredit[en] = struct{}{}
}

// unkeepLocked reverses keepLocked. A credited entry is queued for
// uncrediting under the relationships it was credited with.
func (e *Engine) unkeepLocked(en *entry) {
	e.ix.AddKept(en.path.ASNs, -1)
	for i := 0; i+1 < len(en.path.ASNs); i++ {
		l := paths.NewLink(en.path.ASNs[i], en.path.ASNs[i+1])
		delete(e.linkIndex[l], en)
		if len(e.linkIndex[l]) == 0 {
			delete(e.linkIndex, l)
		}
	}
	if en.path.Prefix.IsValid() {
		k := pfxKey{origin: en.path.Origin(), prefix: en.path.Prefix}
		e.pfxRef[k]--
		if e.pfxRef[k] == 0 {
			delete(e.pfxRef, k)
			e.pfxCount[k.origin]--
			if e.pfxCount[k.origin] == 0 {
				delete(e.pfxCount, k.origin)
			}
		}
	}
	if en.credited {
		en.credited = false
		e.uncredit = append(e.uncredit, en.path)
	} else {
		delete(e.pendingCredit, en)
	}
}

// relLookup adapts a canonical-orientation relationship map (relative
// to Link.A, as core.Infer produces) to the crediting walk's (x, y)
// query — the same inversion cone.Relations.Rel performs.
func relLookup(rels map[paths.Link]topology.Relationship) cone.RelLookup {
	return func(x, y uint32) topology.Relationship {
		rel, ok := rels[paths.NewLink(x, y)]
		if !ok {
			return topology.None
		}
		if x < y {
			return rel
		}
		return rel.Invert()
	}
}

// Commit converges the current RIB into one epoch: re-runs the
// affected region of the 11-step inference over the refcounted
// aggregates, patches the cone credit slab, and composes the immutable
// columnar snapshot — bit-identical to a batch run over the same
// routes. The returned snapshot is immutable and safe to publish.
func (e *Engine) Commit(ctx context.Context) *warehouse.Snapshot {
	snap, _ := e.CommitEpoch(ctx)
	return snap
}

// CommitEpoch is Commit plus provenance: it also returns the epoch's
// CommitReport, already appended to the /debug/epochs ring and (when a
// journal is configured) journaled as a stream.commit event. The
// report is instrumentation about the commit, never an input to it.
//
// The commit runs as a stream.commit trace stage with one child stage
// per phase (stream.commit.rank_clique, .infer, .credit, .slab,
// .compose); each phase's duration feeds its span, the phase histogram
// and the report's Phases field from the same clock reads.
func (e *Engine) CommitEpoch(ctx context.Context) (*warehouse.Snapshot, CommitReport) {
	ctx, commit := trace.StartStage(ctx, "stream.commit", commitDuration)
	e.mu.Lock()
	defer e.mu.Unlock()
	e.stats.Epochs++

	rep := CommitReport{
		Epoch:  e.stats.Epochs,
		Events: e.pendingEvents,
	}
	e.pendingEvents = 0
	// The watermark clock keeps running until the snapshot is composed
	// (update-to-serve, not update-to-commit-start); events arriving
	// during the commit are blocked on mu, so the pending marker can be
	// claimed up front.
	firstPendingAt := e.firstPending
	e.firstPending = time.Time{}

	// Steps 2–3 always re-run: rank and clique are global, cheap
	// relative to crediting, and the dirty-region rule hinges on the
	// clique comparison below.
	_, stage := trace.StartStage(ctx, "stream.commit.rank_clique", commitPhaseDuration.With("rank_clique"))
	rank := e.ix.Rank()
	clique := core.CliqueFromIndex(e.ix, rank, e.opts.Infer)

	// The first epoch is a rebuild by definition — there is no previous
	// state to be incremental against — even when the computed clique
	// happens to equal the initial empty one, so the reported decision,
	// stats.FullRebuilds, and the slab path below all agree on it.
	rebuild := e.prevIdx == nil || !equalASNSlices(clique, e.clique)
	switch {
	case e.prevIdx == nil:
		rep.Decision, rep.Reason = DecisionRebuild, ReasonInitial
	case !rebuild:
		rep.Decision, rep.Reason = DecisionIncremental, ReasonSteady
	default:
		rep.Decision, rep.Reason = DecisionRebuild, ReasonCliqueChurn
	}
	if rebuild {
		// Dirty region = everything: the clique decides which paths are
		// poisoned, so every kept-layer aggregate and every credit is
		// suspect. Re-flag and rebuild from the ranked layer.
		e.stats.FullRebuilds++
		e.clique = append([]uint32(nil), clique...)
		e.cliqueSet = make(map[uint32]bool, len(clique))
		for _, m := range clique {
			e.cliqueSet[m] = true
		}
		e.ix.ResetKept()
		e.linkIndex = make(map[paths.Link]map[*entry]struct{})
		e.pfxRef = make(map[pfxKey]int)
		e.pfxCount = make(map[uint32]int)
		e.pendingCredit = make(map[*entry]struct{})
		e.uncredit = nil
		e.pc = cone.NewPairCounts()
		for _, en := range e.entries {
			en.credited = false
			en.poisoned = core.Poisoned(en.path.ASNs, e.cliqueSet)
			if !en.poisoned {
				e.keepLocked(en)
			}
		}
	}
	rep.Phases.RankClique = millis(stage.End())

	// Steps 5–9 over the kept-layer aggregates — the same engine the
	// batch path executes.
	inferCtx, stage := trace.StartStage(ctx, "stream.commit.infer", commitPhaseDuration.With("infer"))
	res := core.InferIndexed(inferCtx, e.ix, rank, clique, e.opts.Infer)
	rep.Phases.Infer = millis(stage.End())

	// Cone crediting. Removed paths leave under the relationships they
	// were credited with; paths touching a changed link are re-walked;
	// everything else keeps its contribution (leg 3 of the package
	// contract).
	_, stage = trace.StartStage(ctx, "stream.commit.credit", commitPhaseDuration.With("credit"))
	oldRel := relLookup(e.rels)
	newRel := relLookup(res.Rels)
	rep.UncreditedPaths = len(e.uncredit)
	for _, p := range e.uncredit {
		e.pc.Credit(oldRel, p.ASNs, -1)
	}
	e.uncredit = nil
	if !rebuild {
		dirty := make(map[paths.Link]struct{})
		affected := make(map[*entry]struct{})
		for l, r := range res.Rels {
			if old, ok := e.rels[l]; !ok || old != r {
				dirty[l] = struct{}{}
				for en := range e.linkIndex[l] {
					affected[en] = struct{}{}
				}
			}
		}
		for l := range e.rels {
			if _, ok := res.Rels[l]; !ok {
				dirty[l] = struct{}{}
				for en := range e.linkIndex[l] {
					affected[en] = struct{}{}
				}
			}
		}
		rep.DirtyLinks = len(dirty)
		for en := range affected {
			if en.credited {
				rep.RecreditedPaths++
				e.pc.Credit(oldRel, en.path.ASNs, -1)
				e.pc.Credit(newRel, en.path.ASNs, 1)
			}
		}
	}
	rep.NewlyCredited = len(e.pendingCredit)
	for en := range e.pendingCredit {
		e.pc.Credit(newRel, en.path.ASNs, 1)
		en.credited = true
	}
	e.pendingCredit = make(map[*entry]struct{})
	e.rels = res.Rels
	e.clique = append([]uint32(nil), clique...)
	rep.Phases.Credit = millis(stage.End())

	// The serving index is the sorted endpoint set of the labeled
	// links — identical to what cone.NewRelations interns batch-side.
	asns := make([]uint32, 0, 2*len(res.Rels))
	for l := range res.Rels {
		//lint:ignore nodeterminismleak asindex.New sorts and dedups its input, so collection order cannot leak
		asns = append(asns, l.A, l.B)
	}
	idx := asindex.New(asns)

	_, stage = trace.StartStage(ctx, "stream.commit.slab", commitPhaseDuration.With("slab"))
	var slab []uint64
	switch {
	// rebuild is always true on the first epoch, so e.prevIdx is
	// non-nil whenever the second operand evaluates.
	case rebuild || !equalASNSlices(idx.ASNs(), e.prevIdx.ASNs()):
		e.stats.FullSlabs++
		rep.Slab = SlabFull
		slab = e.pc.Slab(idx)
	case e.pc.Dirty():
		e.stats.Patched++
		rep.Slab = SlabPatched
		slab = e.pc.Patch(idx, e.prevSlab)
	default:
		e.stats.Reused++
		rep.Slab = SlabReused
		slab = e.prevSlab
	}
	e.prevIdx = idx
	e.prevSlab = slab
	rep.Phases.Slab = millis(stage.End())

	_, stage = trace.StartStage(ctx, "stream.commit.compose", commitPhaseDuration.With("compose"))
	snap := warehouse.Compose(warehouse.ComposeInput{
		Index:         idx,
		ConeWords:     slab,
		TransitDegree: res.TransitDegree,
		Degree:        res.Degree,
		PrefixCounts:  e.pfxCount,
		Rels:          res.Rels,
		Steps:         res.Steps,
		Clique:        clique,
		PathCount:     e.ix.PathCount(),
		Workers:       e.opts.Workers,
	})
	rep.Phases.Compose = millis(stage.End())

	rep.Entries = len(e.entries)
	rep.RIBRoutes = len(e.rib)
	total := commit.End()
	rep.TotalMillis = millis(total)
	if !firstPendingAt.IsZero() {
		// The watermark ends at the commit's own end clock read.
		rep.WatermarkMillis = millis(commit.Start().Add(total).Sub(firstPendingAt))
	}

	e.reports = append(e.reports, rep)
	if len(e.reports) > maxReports {
		e.reports = append(e.reports[:0], e.reports[1:]...)
	}
	e.opts.Journal.Info(ctx, "stream.commit",
		oplog.Int("epoch", int64(rep.Epoch)),
		oplog.String("decision", rep.Decision),
		oplog.String("reason", rep.Reason),
		oplog.String("slab", rep.Slab),
		oplog.Int("events", int64(rep.Events)),
		oplog.Int("dirty_links", int64(rep.DirtyLinks)),
		oplog.Int("recredited_paths", int64(rep.RecreditedPaths)),
		oplog.Int("total_ms", int64(rep.TotalMillis)),
		oplog.Int("watermark_ms", int64(rep.WatermarkMillis)))

	return snap, rep
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Entries = len(e.entries)
	s.RIBRoutes = len(e.rib)
	return s
}

func equalASNSlices(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
