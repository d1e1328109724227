package trace

import (
	"context"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// Stage is one timed pipeline phase: a child span, a duration
// histogram and the caller's report row, all fed by one measurement.
// The span's Start and End clock reads are the only ones taken, so the
// histogram observation, the returned duration and the span's Dur are
// equal, not merely close. With tracing off for the call tree the stage
// still reads the clock twice and observes the histogram.
type Stage struct {
	span  *Span
	start time.Time
	h     *obs.Histogram
}

// StartStage starts a stage named name as a child of the span in ctx
// and returns a context carrying its span. h receives the duration in
// seconds on End; nil observes nothing. Names follow the span-name
// grammar the obsnames analyzer enforces.
func StartStage(ctx context.Context, name string, h *obs.Histogram) (context.Context, Stage) {
	ctx, s := StartSpan(ctx, name)
	return ctx, newStage(s, h)
}

// StartStage is the package-level StartStage on t: the stage roots a
// new trace when ctx carries no span, and is untraced when t is nil.
func (t *Tracer) StartStage(ctx context.Context, name string, h *obs.Histogram) (context.Context, Stage) {
	ctx, s := t.StartSpan(ctx, name)
	return ctx, newStage(s, h)
}

func newStage(s *Span, h *obs.Histogram) Stage {
	if s != nil {
		return Stage{span: s, start: s.Start, h: h}
	}
	return Stage{start: time.Now(), h: h}
}

// Span returns the stage's span for attributes and events; nil when
// the stage is untraced (every Span method is nil-safe).
func (st Stage) Span() *Span { return st.span }

// Start returns the stage's start time, the clock read its duration is
// measured from.
func (st Stage) Start() time.Time { return st.start }

// End ends the span, observes the histogram — with the span's trace ID
// as exemplar when traced — and returns the duration both recorded.
// Call it once per stage.
func (st Stage) End() time.Duration {
	if st.span == nil {
		d := time.Since(st.start)
		if st.h != nil {
			st.h.Observe(d.Seconds())
		}
		return d
	}
	st.span.End()
	if st.h != nil {
		st.h.ObserveExemplar(st.span.Dur.Seconds(), st.span.Trace.String())
	}
	return st.span.Dur
}
