package stream

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/asrank-go/asrank/internal/obs"
)

// This file is the engine's provenance layer. The paper the pipeline
// reproduces justifies every inferred relationship with a numbered
// step; CommitReport applies the same standard to the engine's own
// operational decisions — every epoch records whether it was served
// incrementally or by a full rebuild, why, what region was dirty, and
// where the time went, so "why was epoch 412 slow" is answered by a
// ring lookup instead of a reconstruction.

// maxReports bounds the in-engine report ring; /debug/epochs serves at
// most this many trailing epochs.
const maxReports = 64

// Decision values for CommitReport.
const (
	DecisionRebuild     = "rebuild"
	DecisionIncremental = "incremental"
)

// Reason values for CommitReport.
const (
	ReasonInitial     = "initial"      // first epoch: everything is new
	ReasonCliqueChurn = "clique_churn" // clique changed, every credit suspect
	ReasonSteady      = "steady"       // confined dirty region
)

// Slab values for CommitReport.
const (
	SlabFull    = "full"    // cone slab rebuilt from the credit table
	SlabPatched = "patched" // previous slab patched in place
	SlabReused  = "reused"  // previous slab untouched
)

// Commit metrics: the stream.commit stage and its phase stages observe
// these with the same durations the CommitReport carries.
var (
	commitDuration = obs.Default().Histogram("asrank_stream_commit_duration_seconds",
		"Wall time of one stream epoch commit.", obs.DurationBuckets)
	commitPhaseDuration = obs.Default().HistogramVec("asrank_stream_commit_phase_duration_seconds",
		"Wall time of one stream commit phase.", obs.DurationBuckets, "phase")
)

// PhaseMillis breaks one commit into its serial phases, in wall-clock
// milliseconds, each the duration of its stream.commit.* stage.
// Instrumentation only: phase times never influence what the engine
// computes.
type PhaseMillis struct {
	RankClique float64 `json:"rankCliqueMillis"` // steps 2–3 + rebuild re-flagging
	Infer      float64 `json:"inferMillis"`      // steps 5–9 over the kept layer
	Credit     float64 `json:"creditMillis"`     // uncredit + re-credit walks
	Slab       float64 `json:"slabMillis"`       // cone slab full/patch/reuse
	Compose    float64 `json:"composeMillis"`    // columnar snapshot composition
}

// CommitReport is one epoch's provenance record: the
// rebuild-vs-incremental decision and its reason, the dirty-region
// counts that justify it, per-phase durations, and the update-to-serve
// watermark (how stale the oldest unserved route event was when the
// epoch began serving). Reports are journaled, appended to the
// warehouse manifest as an opaque annotation, and served on
// /debug/epochs.
type CommitReport struct {
	Epoch    int    `json:"epoch"`
	Decision string `json:"decision"`
	Reason   string `json:"reason"`
	Slab     string `json:"slab"`

	// Dirty-region accounting. Events counts route events folded since
	// the previous commit; DirtyLinks counts links whose inferred
	// relationship changed or disappeared (incremental epochs only);
	// RecreditedPaths counts live paths re-walked because they touch a
	// dirty link; UncreditedPaths counts departed paths whose credits
	// were removed; NewlyCredited counts paths credited for the first
	// time this epoch.
	Events          int `json:"events"`
	DirtyLinks      int `json:"dirtyLinks"`
	RecreditedPaths int `json:"recreditedPaths"`
	UncreditedPaths int `json:"uncreditedPaths"`
	NewlyCredited   int `json:"newlyCredited"`
	Entries         int `json:"entries"`
	RIBRoutes       int `json:"ribRoutes"`

	Phases          PhaseMillis `json:"phases"`
	TotalMillis     float64     `json:"totalMillis"`
	WatermarkMillis float64     `json:"watermarkMillis"` // 0 when no events were pending
}

// millis converts a stage duration to a report field.
func millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Reports returns the engine's trailing commit reports, oldest first.
func (e *Engine) Reports() []CommitReport {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]CommitReport(nil), e.reports...)
}

// EpochsHandler serves the engine's commit-report ring as JSON — the
// /debug/epochs timeline. Shape: {"reports":[{...},...]}, oldest
// first, at most maxReports entries.
func EpochsHandler(e *Engine) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Reports []CommitReport `json:"reports"`
		}{Reports: e.Reports()})
	})
}
