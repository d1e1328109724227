package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/stream"
	"github.com/asrank-go/asrank/internal/streamtest"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// The stream table and churn, and its output checks.
const (
	streamASes = 2000
	streamVPs  = 12
	streamRows = 53000
	churnFrac  = 0.01 // route events per steady epoch, as a share of the table
	minEpochs  = 100  // measured epochs, however long that takes
	equivEvery = 50   // EquivCheck against the batch reference every N epochs, and at the last
	// stationaryTol is how far the last epoch's entries, RIB routes and
	// AS count may sit from the bootstrap epoch's.
	stationaryTol = 0.03
)

// liveLoop is asrankd's streaming loop without the network: route
// events into a stream.Engine, CommitEpoch, BuildSnapshot, and an
// ETag-deduplicated Store.AppendNote carrying the CommitReport.
type liveLoop struct {
	eng      *stream.Engine
	store    *warehouse.Store
	opts     stream.Options
	mirror   streamtest.Mirror // independent route table for EquivCheck
	lastETag string
	epochs   int
}

// epochOut is one epoch's timings and provenance.
type epochOut struct {
	ingest, build, append, total time.Duration
	events                       int
	rep                          stream.CommitReport
	snap                         *warehouse.Snapshot
	info                         warehouse.EpochInfo
	appended                     bool
	steps                        map[string]time.Duration // traced epochs only
}

// openLiveLoop simulates the table, derives its churn, opens a fresh
// warehouse in dir, and commits the bootstrap epoch.
func openLiveLoop(ctx context.Context, seed int64, dir string) (*liveLoop, *churn, error) {
	col, err := simulate(seed, streamASes, streamVPs, streamRows)
	if err != nil {
		return nil, nil, err
	}
	perEpoch := int(math.Round(churnFrac * float64(len(col.sim.Dataset.Paths))))
	ch, err := newChurn(seed, col, perEpoch)
	if err != nil {
		return nil, nil, err
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	store, err := warehouse.Open(dir, warehouse.Options{Workers: engineWorkers})
	if err != nil {
		return nil, nil, err
	}
	opts := stream.Options{Workers: engineWorkers, IXPASes: col.ixpSet()}
	l := &liveLoop{eng: stream.New(opts), store: store, opts: opts, mirror: make(streamtest.Mirror)}
	if _, err := l.step(ctx, ch.bootstrap(), nil); err != nil {
		return nil, nil, err
	}
	return l, ch, nil
}

// step applies one epoch of events and publishes it. The timed region
// runs from the first event applied to the snapshot appended; the
// mirror is updated after it.
func (l *liveLoop) step(ctx context.Context, evs []streamtest.Event, rec *recorder) (epochOut, error) {
	out := epochOut{events: len(evs)}
	op, root := rec.newOp(), rec.newID()
	pctx := ctx
	var capture *trace.Capture
	var capRoot *trace.Span
	if rec != nil {
		tr := trace.New(trace.Options{FlightSize: 64})
		capture = tr.NewCapture(0)
		pctx, capRoot = tr.StartSpan(ctx, "bench.program_root")
	}
	var data *apiserver.Data
	var appendErr error
	commitID := rec.newID()
	t0 := time.Now()
	out.ingest = rec.timed("stream.ingest", op, root, 0, func() {
		for _, ev := range evs {
			if ev.Withdraw {
				l.eng.Withdraw(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix)
			} else {
				l.eng.Announce(ev.Key.Collector, ev.Key.VP, ev.Key.Prefix, ev.ASNs)
			}
		}
	})
	tc := time.Now()
	out.snap, out.rep = l.eng.CommitEpoch(pctx)
	tcEnd := time.Now()
	out.build = rec.timed("apiserver.BuildSnapshot", op, root, 0, func() {
		data = apiserver.BuildSnapshot(out.snap)
	})
	etag := data.ETag()
	if etag != l.lastETag {
		out.append = rec.timed("warehouse.AppendNote", op, root, 0, func() {
			note, err := json.Marshal(out.rep)
			if err != nil {
				appendErr = err
				return
			}
			out.info, appendErr = l.store.AppendNote(out.snap, fmt.Sprintf("stream-%d", l.epochs), etag, note)
		})
		out.appended = true
		l.lastETag = etag
	}
	t1 := time.Now()
	out.total = t1.Sub(t0)
	if appendErr != nil {
		return out, fmt.Errorf("append epoch %d: %w", l.epochs, appendErr)
	}
	l.epochs++
	for _, ev := range evs {
		l.mirror.Apply(ev)
	}
	if rec != nil {
		capRoot.End()
		capture.Stop()
		rec.add(span{name: "bench.stream_epoch", id: root, op: op, start: t0, end: t1})
		rec.add(span{name: "stream.CommitEpoch", id: commitID, parent: root, op: op, start: tc, end: tcEnd})
		prog := capture.Spans()
		addPhaseSpans(rec, out.rep.Phases, prog, commitID, op, tc, tcEnd)
		out.steps = make(map[string]time.Duration)
		for _, s := range rec.importCapture(prog, capRoot, root, op) {
			if step, ok := strings.CutPrefix(s.name, "core.infer."); ok {
				out.steps[step] += s.end.Sub(s.start)
			}
		}
	}
	return out, nil
}

// addPhaseSpans lays the commit's phases, as CommitReport timed them,
// out under the CommitEpoch span. The infer phase ends where the
// program's last core.infer.* span ends; rank/clique precedes it and
// credit, slab and compose follow it back to back, so every span stays
// inside the commit and the infer span contains the program's step
// spans.
func addPhaseSpans(rec *recorder, ph stream.PhaseMillis, prog []*trace.Span, parent, op uint64, start, end time.Time) {
	dur := func(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }
	inferEnd := start.Add(dur(ph.RankClique + ph.Infer))
	for _, s := range prog {
		if e := s.Start.Add(s.Dur); strings.HasPrefix(s.Name, "core.infer.") && e.After(inferEnd) {
			inferEnd = e
		}
	}
	clip := func(t time.Time) time.Time {
		if t.Before(start) {
			return start
		}
		if t.After(end) {
			return end
		}
		return t
	}
	inferStart := inferEnd.Add(-dur(ph.Infer))
	at := inferEnd
	for _, p := range []struct {
		name       string
		start, end time.Time
	}{
		{"core.rank_clique", inferStart.Add(-dur(ph.RankClique)), inferStart},
		{"core.InferIndexed", inferStart, inferEnd},
		{"cone.credit", at, at.Add(dur(ph.Credit))},
		{"cone.slab", at.Add(dur(ph.Credit)), at.Add(dur(ph.Credit + ph.Slab))},
		{"warehouse.Compose", at.Add(dur(ph.Credit + ph.Slab)), at.Add(dur(ph.Credit + ph.Slab + ph.Compose))},
	} {
		rec.add(span{name: p.name, id: rec.newID(), parent: parent, op: op,
			start: clip(p.start), end: clip(p.end), fromCommitRep: true})
	}
}

// equivCheck proves the epoch just committed bit-identical to a batch
// run over the mirrored table.
func (l *liveLoop) equivCheck(snap *warehouse.Snapshot) error {
	return streamtest.EquivCheck(snap, streamtest.BatchReference(l.mirror, l.opts))
}

// runStream is the stream workload: asrankd's live loop on a
// 2000-AS table under stationary 1% churn.
func runStream(ctx context.Context, cfg config, rec *recorder) (*result, error) {
	res := newResult()
	dir := filepath.Join(cfg.runDir, cfg.runID+"-wh")
	defer os.RemoveAll(dir)
	var loop *liveLoop
	var ch *churn
	var setups []float64
	for i := 0; i < setupReps; i++ {
		loop, ch = nil, nil
		t0 := time.Now()
		l, c, err := openLiveLoop(ctx, cfg.seed, dir)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		loop, ch = l, c
	}
	res.set("setup_s", median(setups))
	first := loop.eng.Stats()
	firstASes := 0
	if snap, _, ok := loop.store.Latest(); ok {
		firstASes = snap.NumASes()
	}

	var eps []epochOut
	var totals, traced, untraced []float64
	var outOfBand time.Duration
	var checked int
	var diverged []string
	start := time.Now()
	deadline := start.Add(cfg.measure())
	for i := 0; len(eps) < minEpochs || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var r *recorder
		if rec != nil && i%2 == 0 {
			r = rec
		}
		evs := ch.next()
		e, err := loop.step(ctx, evs, r)
		if err != nil {
			return nil, err
		}
		totals = append(totals, ms(e.total))
		if r != nil {
			traced = append(traced, ms(e.total))
		} else {
			untraced = append(untraced, ms(e.total))
		}
		if (i+1)%equivEvery == 0 {
			t := time.Now()
			checked++
			if err := loop.equivCheck(e.snap); err != nil {
				diverged = append(diverged, fmt.Sprintf("epoch %d: %v", i+1, err))
			}
			outOfBand += time.Since(t)
		}
		e.snap = nil // keep only the store's copy of past epochs live
		eps = append(eps, e)
	}
	busy := time.Since(start) - outOfBand
	res.setTiming("op_ms_p50", "op_ms_tail", totals)
	res.set("ops_per_s", float64(len(eps))/busy.Seconds())
	res.set("live_heap_mb", heapMB())

	// The final epoch is checked whatever its number.
	lastSnap, _, _ := loop.store.Latest()
	checked++
	if err := loop.equivCheck(lastSnap); err != nil {
		diverged = append(diverged, fmt.Sprintf("final epoch: %v", err))
	}
	res.attempted, res.failed = len(eps), len(diverged)
	res.check("equiv", len(diverged) == 0, "%d of %d epochs checked (every %dth and the last) diverge from streamtest.BatchReference %v",
		len(diverged), checked, equivEvery, diverged)
	streamLayers(res, eps, traced, untraced)
	if len(traced) > 0 {
		rec.setSelfTimes(res, len(traced))
	}
	checkStationary(res, eps, first, firstASes, lastSnap.NumASes())
	sw, fl, frozen := ch.census()
	res.notef("table: %d routes, %d with an alternative path, %d kept out of churn, %d events per churn epoch, %d epochs; at the end %d routes switched, %d withdrawn",
		len(ch.routes), len(ch.alts), frozen, ch.perEpoch, len(eps), sw, fl)
	return res, nil
}

// streamLayers reports the per-layer metrics of a run of epochs.
func streamLayers(res *result, eps []epochOut, traced, untraced []float64) {
	var ingest, rankClique, infer, credit, slab, compose, dirty, recredit, build, appendMS, delta []float64
	rebuilds, reuse := 0, 0
	steps := make(map[string][]float64)
	for _, e := range eps {
		if e.events > 0 {
			ingest = append(ingest, us(e.ingest)/float64(e.events))
		}
		ph := e.rep.Phases
		rankClique = append(rankClique, ph.RankClique)
		infer = append(infer, ph.Infer)
		credit = append(credit, ph.Credit)
		slab = append(slab, ph.Slab)
		compose = append(compose, ph.Compose)
		dirty = append(dirty, float64(e.rep.DirtyLinks))
		recredit = append(recredit, float64(e.rep.RecreditedPaths))
		build = append(build, ms(e.build))
		if e.rep.Decision == stream.DecisionRebuild {
			rebuilds++
		}
		if e.rep.Slab == stream.SlabPatched || e.rep.Slab == stream.SlabReused {
			reuse++
		}
		if e.appended {
			appendMS = append(appendMS, ms(e.append))
			if e.info.Kind == "delta" {
				delta = append(delta, float64(e.info.Bytes))
			}
		}
		for s, d := range e.steps {
			steps[s] = append(steps[s], ms(d))
		}
	}
	n := float64(len(eps))
	res.set("stream.ingest_us_per_event", median(ingest))
	res.set("stream.rank_clique_ms", median(rankClique))
	res.set("stream.infer_ms", median(infer))
	res.set("stream.credit_ms", median(credit))
	res.set("stream.slab_ms", median(slab))
	res.set("stream.compose_ms", median(compose))
	res.set("stream.rebuild_ratio", float64(rebuilds)/n)
	res.set("cone.slab_reuse_ratio", float64(reuse)/n)
	res.set("stream.dirty_links", median(dirty))
	res.set("stream.recredited_paths", median(recredit))
	res.set("apiserver.build_ms", median(build))
	res.set("warehouse.append_ms", median(appendMS))
	res.set("warehouse.delta_bytes", median(delta))
	for s, v := range steps {
		res.set("core."+s+"_ms", median(v))
	}
	if len(traced) > 0 && len(untraced) > 0 {
		res.set("trace.op_overhead_pct", 100*(median(traced)/median(untraced)-1))
	}
	res.notef("epochs: %d rebuilds, %d slab patched or reused, %d appended", rebuilds, reuse, len(appendMS))
}

// checkStationary holds the churn to its promise: the table at the last
// epoch looks like the bootstrap table. Whether inference also costs the
// same at the end as at the start is a timing, open to host noise, so
// it is reported (stream.infer_drift_pct) rather than checked.
func checkStationary(res *result, eps []epochOut, first stream.Stats, firstASes, lastASes int) {
	last := eps[len(eps)-1].rep
	near := func(a, b int) bool { return math.Abs(float64(a)/float64(b)-1) <= stationaryTol }
	res.check("churn_table_stationary",
		near(last.Entries, first.Entries) && near(last.RIBRoutes, first.RIBRoutes) && near(lastASes, firstASes),
		"entries %d→%d, RIB routes %d→%d, ASes %d→%d (tolerance %.0f%%)",
		first.Entries, last.Entries, first.RIBRoutes, last.RIBRoutes, firstASes, lastASes, 100*stationaryTol)
	q := len(eps) / 4
	var head, tail []float64
	for i := 0; i < q; i++ {
		head = append(head, eps[i].rep.Phases.Infer)
		tail = append(tail, eps[len(eps)-q+i].rep.Phases.Infer)
	}
	h, t := median(head), median(tail)
	res.set("stream.infer_drift_pct", 100*(t/h-1))
	res.notef("infer-phase median %.2f ms over the first %d epochs, %.2f ms over the last %d (%+.1f%%)",
		h, q, t, q, 100*(t/h-1))
}
