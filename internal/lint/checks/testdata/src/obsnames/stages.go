// Golden input for the stage-name arm of obsnames: names handed to
// trace.StartStage (method or package function) get the span-name
// checks, since each stage is a span.
package obsnames

import (
	"context"
	"fmt"

	"obs"
	"trace"
)

func stages(ctx context.Context, h *obs.Histogram, phase string) {
	// Conforming names, mirroring real call sites.
	ctx, s1 := trace.StartStage(ctx, "stream.commit.infer", h)
	ctx, s2 := tr.StartStage(ctx, "warehouse.append", h)

	// Violations.
	ctx, s3 := trace.StartStage(ctx, "stream.commit."+phase, h)              // want "cardinality bomb"
	ctx, s4 := tr.StartStage(ctx, fmt.Sprintf("stream.commit.%s", phase), h) // want "cardinality bomb"
	ctx, s5 := trace.StartStage(ctx, "commit", h)                            // want "too flat"
	ctx, s6 := trace.StartStage(ctx, "stream.Commit", h)                     // want "breaks the house style"
	_ = ctx
	for _, s := range []trace.Stage{s1, s2, s3, s4, s5, s6} {
		s.End()
	}
}
