// Package trace is a minimal stand-in for the repo's span tracer,
// giving the obsnames golden package StartSpan and StartStage methods
// and functions in a package named trace — the shape the span-name arm
// keys on.
package trace

import (
	"context"
	"time"

	"obs"
)

type Tracer struct{}

type Span struct{}

func New() *Tracer { return &Tracer{} }

func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, nil
}

// StartSpan mirrors the real package-level helper that resumes the
// tracer found in ctx.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return ctx, nil
}

func (s *Span) SetAttr(key, value string) {}

func (s *Span) End() {}

type Stage struct{}

func (t *Tracer) StartStage(ctx context.Context, name string, h *obs.Histogram) (context.Context, Stage) {
	return ctx, Stage{}
}

// StartStage mirrors the real package-level stage primitive.
func StartStage(ctx context.Context, name string, h *obs.Histogram) (context.Context, Stage) {
	return ctx, Stage{}
}

func (st Stage) End() time.Duration { return 0 }
