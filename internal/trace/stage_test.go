package trace

import (
	"context"
	"testing"

	"github.com/asrank-go/asrank/internal/obs"
)

// TestStageOneMeasurement holds a stage's three sinks to one
// measurement: traced, End returns the span's Dur and observes it
// once; untraced (no span in ctx, or a nil Tracer), it still observes
// once and returns what it observed; a nil histogram is allowed.
func TestStageOneMeasurement(t *testing.T) {
	newHist := func() *obs.Histogram {
		return obs.NewRegistry().Histogram("asrank_test_stage_duration_seconds", "Stage test.", obs.DurationBuckets)
	}
	h := newHist()
	tr := New(Options{})

	ctx, root := tr.StartSpan(context.Background(), "test.root")
	sctx, st := StartStage(ctx, "test.stage", h)
	if FromContext(sctx) != st.Span() || st.Span().Parent != root.ID || st.Start() != st.Span().Start {
		t.Fatal("traced stage is not a child span of ctx carrying its own start")
	}
	d := st.End()
	root.End()
	if d != st.Span().Dur || h.Count() != 1 || h.Sum() != d.Seconds() {
		t.Fatalf("traced: End %v, span %v, histogram %d obs sum %v", d, st.Span().Dur, h.Count(), h.Sum())
	}

	for _, start := range []func(*obs.Histogram) (context.Context, Stage){
		func(h *obs.Histogram) (context.Context, Stage) {
			return StartStage(context.Background(), "test.stage", h)
		},
		func(h *obs.Histogram) (context.Context, Stage) {
			return (*Tracer)(nil).StartStage(context.Background(), "test.stage", h)
		},
	} {
		h := newHist()
		_, st := start(h)
		if st.Span() != nil {
			t.Fatal("untraced stage has a span")
		}
		d := st.End()
		if d < 0 || h.Count() != 1 || h.Sum() != d.Seconds() {
			t.Fatalf("untraced: End %v, histogram %d obs sum %v", d, h.Count(), h.Sum())
		}
	}

	_, st = tr.StartStage(context.Background(), "test.root", nil)
	if st.Span() == nil || st.Span().Parent != 0 || st.End() != st.Span().Dur {
		t.Fatal("Tracer.StartStage without a histogram: want a root span and its Dur")
	}
}
