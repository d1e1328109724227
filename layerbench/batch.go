package main

import (
	"context"
	"strings"
	"time"

	"github.com/asrank-go/asrank/internal/apiserver"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/trace"
	"github.com/asrank-go/asrank/internal/validation"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// The batch corpus, and the PPV floors its inference must stay above
// against the topology's ground truth (the validation of Dimitropoulos
// et al.): the lowest PPV seen over seeds 1–60 was c2p 0.973 and
// p2p 0.799, so the floors sit below them.
const (
	batchASes = 4000
	batchVPs  = 24
	batchRows = 199000
	minC2PPPV = 0.95
	minP2PPPV = 0.75
)

// coreSteps are the program's per-step spans, core.infer.<step>, each
// reported as core.<step>_ms.
var coreSteps = []string{"rank", "clique", "poison", "clique_p2p", "providerless",
	"top_down", "vp", "stub_clique", "fold", "peer_default"}

// passOut is one offline pass: its per-call times and what it produced.
type passOut struct {
	sanitize, infer, fromResult, build, total time.Duration
	stats                                     paths.SanitizeStats
	res                                       *core.Result
	etag                                      string
	steps                                     map[string]time.Duration // traced passes only
}

// batchPass runs paths.Sanitize → core.InferCtx → warehouse.FromResult
// → apiserver.BuildSnapshot once. With a recorder it records a span per
// call and switches the program's own spans on by handing core and
// paths a context that carries a trace.Tracer span.
func batchPass(ctx context.Context, col *collection, ixp map[uint32]bool, workers int, rec *recorder) passOut {
	var out passOut
	op, root := rec.newOp(), rec.newID()
	pctx := ctx
	var capture *trace.Capture
	var capRoot *trace.Span
	if rec != nil {
		tr := trace.New(trace.Options{FlightSize: 64})
		capture = tr.NewCapture(0)
		pctx, capRoot = tr.StartSpan(ctx, "bench.program_root")
	}
	var ds *paths.Dataset
	var snap *warehouse.Snapshot
	var data *apiserver.Data
	t0 := time.Now()
	out.sanitize = rec.timed("paths.Sanitize", op, root, 0, func() {
		ds, out.stats = paths.SanitizeCtx(pctx, col.sim.Dataset, paths.SanitizeOptions{IXPASes: ixp, Workers: workers})
	})
	out.infer = rec.timed("core.InferCtx", op, root, 0, func() {
		out.res = core.InferCtx(pctx, ds, core.Options{Workers: workers})
	})
	out.fromResult = rec.timed("warehouse.FromResult", op, root, 0, func() {
		snap = warehouse.FromResult(out.res)
	})
	out.build = rec.timed("apiserver.BuildSnapshot", op, root, 0, func() {
		data = apiserver.BuildSnapshot(snap)
	})
	t1 := time.Now()
	out.total = t1.Sub(t0)
	out.etag = data.ETag()
	if rec != nil {
		capRoot.End()
		capture.Stop()
		rec.add(span{name: "bench.batch_pass", id: root, op: op, start: t0, end: t1})
		out.steps = make(map[string]time.Duration)
		for _, s := range rec.importCapture(capture.Spans(), capRoot, root, op) {
			if step, ok := strings.CutPrefix(s.name, "core.infer."); ok {
				out.steps[step] += s.end.Sub(s.start)
			}
		}
	}
	return out
}

// runBatch is the batch workload: what an asrank run or asrankd
// start-up pays, nearly all of it in paths and core.
func runBatch(ctx context.Context, cfg config, rec *recorder) (*result, error) {
	res := newResult()
	var col *collection
	var setups []float64
	for i := 0; i < setupReps; i++ {
		col = nil
		t0 := time.Now()
		c, err := simulate(cfg.seed, batchASes, batchVPs, batchRows)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		col = c
	}
	res.set("setup_s", median(setups))
	ixp := col.ixpSet()

	var totals, traced, untraced, sanitize, infer, fromResult, build []float64
	steps := make(map[string][]float64)
	var etags []string
	var last passOut
	start := time.Now()
	deadline := start.Add(cfg.measure())
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var r *recorder
		if rec != nil && i%2 == 0 {
			r = rec
		}
		last = batchPass(ctx, col, ixp, engineWorkers, r)
		totals = append(totals, ms(last.total))
		if r != nil {
			traced = append(traced, ms(last.total))
			for _, s := range coreSteps {
				steps[s] = append(steps[s], ms(last.steps[s]))
			}
		} else {
			untraced = append(untraced, ms(last.total))
		}
		sanitize = append(sanitize, ms(last.sanitize))
		infer = append(infer, ms(last.infer))
		fromResult = append(fromResult, ms(last.fromResult))
		build = append(build, ms(last.build))
		etags = append(etags, last.etag)
	}
	elapsed := time.Since(start)
	res.setTiming("op_ms_p50", "op_ms_tail", totals)
	res.set("ops_per_s", float64(len(totals))/elapsed.Seconds())
	res.set("live_heap_mb", heapMB())

	res.set("paths.sanitize_ms", median(sanitize))
	res.set("paths.kept_ratio", float64(last.stats.Kept)/float64(last.stats.Input))
	res.set("core.infer_ms", median(infer))
	for _, s := range coreSteps {
		if len(steps[s]) > 0 {
			res.set("core."+s+"_ms", median(steps[s]))
		}
	}
	res.set("warehouse.from_result_ms", median(fromResult))
	res.set("apiserver.build_ms", median(build))
	if len(traced) > 0 && len(untraced) > 0 {
		res.set("trace.op_overhead_pct", 100*(median(traced)/median(untraced)-1))
		rec.setSelfTimes(res, len(traced))
	}

	// Output checks, outside the measured phase.
	res.attempted = len(etags) + 1
	for _, e := range etags {
		if e != etags[0] {
			res.failed++
		}
	}
	res.check("batch_etag_stable", res.failed == 0, "%d passes, %d with a serving ETag other than %s", len(etags), res.failed, etags[0])
	one := batchPass(ctx, col, ixp, 1, nil)
	if one.etag != etags[0] {
		res.failed++
	}
	res.check("batch_etag_workers1", one.etag == etags[0], "workers=1 ETag %s, workers=%d ETag %s", one.etag, engineWorkers, etags[0])
	m := validation.Evaluate(last.res.Rels, col.topo.Links())
	res.check("batch_ppv", m.C2PPPV() >= minC2PPPV && m.P2PPPV() >= minP2PPPV,
		"c2p PPV %.4f (floor %.2f), p2p PPV %.4f (floor %.2f), coverage %.3f",
		m.C2PPPV(), minC2PPPV, m.P2PPPV(), minP2PPPV, m.Coverage)
	res.notef("corpus: %d ASes, %d VPs, %d paths in, %d kept, %d links inferred",
		col.topo.NumASes(), len(col.sim.VPs), last.stats.Input, last.stats.Kept, len(last.res.Rels))
	return res, nil
}
