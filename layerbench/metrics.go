package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"
)

// metricDef names one reported metric. The two tables below must list
// exactly what BENCHMARK.json lists (metrics_test.go holds them equal).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd is what a user of the system sees. Every workload reports
// every one of them from an untraced run; the unit of work behind the
// op_* metrics is the workload's own: one offline pipeline pass (batch),
// one churn epoch from first event applied to snapshot appended
// (stream), one HTTP request (serve).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"op_ms_tail", "ms", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"live_heap_mb", "MB", "lower"},
}

// perLayer comes from the traced run. A workload that never calls into
// a layer reports that layer's metrics as 0. Better says which way an
// optimisation should move a metric; per-layer metrics have no bound.
var perLayer = []metricDef{
	// paths
	{"paths.sanitize_ms", "ms", "lower"},
	{"paths.kept_ratio", "ratio", "higher"},
	{"stream.ingest_us_per_event", "us", "lower"},
	// core
	{"core.infer_ms", "ms", "lower"},
	{"core.rank_ms", "ms", "lower"},
	{"core.clique_ms", "ms", "lower"},
	{"core.poison_ms", "ms", "lower"},
	{"core.clique_p2p_ms", "ms", "lower"},
	{"core.providerless_ms", "ms", "lower"},
	{"core.top_down_ms", "ms", "lower"},
	{"core.vp_ms", "ms", "lower"},
	{"core.stub_clique_ms", "ms", "lower"},
	{"core.fold_ms", "ms", "lower"},
	{"core.peer_default_ms", "ms", "lower"},
	{"stream.rank_clique_ms", "ms", "lower"},
	{"stream.infer_ms", "ms", "lower"},
	{"stream.infer_drift_pct", "%", "lower"},
	{"stream.rebuild_ratio", "ratio", "lower"},
	// cone
	{"stream.credit_ms", "ms", "lower"},
	{"stream.slab_ms", "ms", "lower"},
	{"cone.slab_reuse_ratio", "ratio", "higher"},
	{"stream.dirty_links", "count", "lower"},
	{"stream.recredited_paths", "count", "lower"},
	// warehouse
	{"warehouse.from_result_ms", "ms", "lower"},
	{"stream.compose_ms", "ms", "lower"},
	{"warehouse.append_ms", "ms", "lower"},
	{"warehouse.delta_bytes", "bytes", "lower"},
	{"warehouse.open_ms", "ms", "lower"},
	{"warehouse.history_us", "us", "lower"},
	// apiserver
	{"apiserver.build_ms", "ms", "lower"},
	{"apiserver.handler_us.point", "us", "lower"},
	{"apiserver.handler_us.contains", "us", "lower"},
	{"apiserver.handler_us.list", "us", "lower"},
	{"apiserver.handler_us.links", "us", "lower"},
	{"apiserver.handler_us.cone", "us", "lower"},
	{"apiserver.handler_us.bulk", "us", "lower"},
	{"apiserver.handler_us.history", "us", "lower"},
	{"apiserver.not_modified_ratio", "ratio", "higher"},
	{"apiserver.shed_ratio", "ratio", "lower"},
	{"net.overhead_us", "us", "lower"},
	// trace
	{"trace.request_overhead_us", "us", "lower"},
	{"trace.observed_p50_overhead_pct", "%", "lower"},
	{"trace.observed_rps_loss_pct", "%", "lower"},
	{"trace.op_overhead_pct", "%", "lower"},
	// self time per traced op, by layer, from the benchmark's spans
	{"self.bench_us", "us", "lower"},
	{"self.paths_us", "us", "lower"},
	{"self.pool_us", "us", "lower"},
	{"self.core_us", "us", "lower"},
	{"self.cone_us", "us", "lower"},
	{"self.stream_us", "us", "lower"},
	{"self.warehouse_us", "us", "lower"},
	{"self.apiserver_us", "us", "lower"},
	{"self.net_us", "us", "lower"},
}

// selfLayers are the span-name prefixes self time is reported for; a
// span's layer is its name up to the first dot.
var selfLayers = []string{"bench", "paths", "pool", "core", "cone", "stream", "warehouse", "apiserver", "net"}

// minBeyond is how many samples must lie beyond a reported tail
// percentile; maxTail caps it, since a deeper tail moved run to run by
// more than any useful bound on a shared two-core host.
const (
	minBeyond = 10
	maxTail   = 90
)

// rankIndex is the nearest-rank index of the q-th percentile of n
// sorted samples.
func rankIndex(q, n int) int {
	i := (q*n+99)/100 - 1
	if i < 0 {
		i = 0
	}
	return i
}

// tailPercent picks the tail a timing is reported at: the highest whole
// percentile, at most maxTail, with at least minBeyond of the n samples
// beyond it. When not even the median qualifies (fewer than about 21
// samples) it returns 50, so the tail degrades to the median instead of
// claiming a tail the samples cannot show.
func tailPercent(n int) int {
	for q := maxTail; q >= 50; q-- {
		if n-1-rankIndex(q, n) >= minBeyond {
			return q
		}
	}
	return 50
}

// percentile returns the nearest-rank q-th percentile of sorted.
func percentile(sorted []float64, q int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankIndex(q, len(sorted))]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the 50th percentile of xs (unsorted).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// ms and us convert a duration to fractional milli/microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// result is what one workload run produced: metric values, operation
// counts, output checks, and human-readable notes.
type result struct {
	values    map[string]float64
	attempted int
	failed    int
	checks    []check
	notes     []string
}

type check struct {
	name   string
	ok     bool
	detail string
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// check records one output check.
func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

// setTiming records a median and its tail for samples in milliseconds.
func (r *result) setTiming(p50, tail string, samples []float64) {
	s := sortedCopy(samples)
	q := tailPercent(len(s))
	r.set(p50, percentile(s, 50))
	r.set(tail, percentile(s, q))
	r.notef("%s/%s: p50 and p%d of %d samples", p50, tail, q, len(s))
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize builds the final line for the metric table defs. End-to-end
// metrics must all be present and positive; a per-layer metric the
// workload did not measure is reported as 0.
func (r *result) summarize(defs []metricDef, requirePositive bool) (summary, error) {
	s := summary{Correct: r.correct(), Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if requirePositive && (!ok || !(v > 0)) {
			return s, fmt.Errorf("metric %s was not measured (value %v)", d.Name, v)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return s, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		s.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if s.Attempted < 1 {
		return s, fmt.Errorf("no operations attempted")
	}
	return s, nil
}

// writeHuman prints every metric by name with its unit, then the
// checks and notes, ahead of the final JSON line.
func (r *result) writeHuman(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.values[d.Name]; ok {
			fmt.Fprintf(w, "%-34s %14.4f %s\n", d.Name, v, d.Unit)
		} else {
			fmt.Fprintf(w, "%-34s %14s %s (not exercised by this workload)\n", d.Name, "0", d.Unit)
		}
	}
	for _, c := range r.checks {
		status := "ok"
		if !c.ok {
			status = "FAILED"
		}
		fmt.Fprintf(w, "check %-28s %-6s %s\n", c.name, status, c.detail)
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "note  %s\n", n)
	}
	fmt.Fprintf(w, "operations attempted %d, failed %d\n", r.attempted, r.failed)
}

// writeSummary prints the final JSON line.
func writeSummary(w io.Writer, s summary) error {
	raw, err := json.Marshal(s)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", raw)
	return err
}
