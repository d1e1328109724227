package paths

import "github.com/asrank-go/asrank/internal/obs"

// Sanitization metrics, recorded into the process-global registry on
// every Sanitize call. Drop reasons mirror the SanitizeStats fields so
// the /metrics surface and the R1 experiment table agree.
var (
	sanDuration = obs.Default().Histogram("asrank_sanitize_duration_seconds",
		"Wall time of one Sanitize pass over a path corpus.", obs.DurationBuckets)
	sanInput = obs.Default().Counter("asrank_sanitize_paths_input_total",
		"Paths fed into sanitization.")
	sanKept = obs.Default().Counter("asrank_sanitize_paths_kept_total",
		"Paths surviving sanitization.")
	sanDropped = obs.Default().CounterVec("asrank_sanitize_paths_dropped_total",
		"Paths discarded by sanitization, by filter.", "reason")
	sanRewritten = obs.Default().CounterVec("asrank_sanitize_paths_rewritten_total",
		"Kept paths rewritten by sanitization, by change.", "change")
)

// record publishes one pass's stats.
func (st SanitizeStats) record() {
	sanInput.Add(uint64(st.Input))
	sanKept.Add(uint64(st.Kept))
	sanDropped.With("reserved").Add(uint64(st.ReservedDiscarded))
	sanDropped.With("loop").Add(uint64(st.LoopDiscarded))
	sanDropped.With("too_short").Add(uint64(st.TooShort))
	sanDropped.With("duplicate").Add(uint64(st.Duplicates))
	sanRewritten.With("prepending").Add(uint64(st.PrependingRemoved))
	sanRewritten.With("ixp").Add(uint64(st.IXPSpliced))
}
