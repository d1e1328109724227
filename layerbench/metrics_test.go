package main

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
	"time"
)

func TestTailPercent(t *testing.T) {
	for _, c := range []struct{ n, want int }{
		{0, 50}, {1, 50}, {11, 50}, // too few samples for any tail: the median
		{20, 50},   // p50 is sample 10; samples 11..20 lie beyond it
		{21, 52},   // p52 is still sample 11
		{30, 66},   // p66 is sample 20 of 30
		{100, 90},  // p90 is sample 90; samples 91..100 lie beyond
		{99, 89},   // p90 would leave 9 beyond
		{1000, 90}, // capped
	} {
		if got := tailPercent(c.n); got != c.want {
			t.Errorf("tailPercent(%d) = %d, want %d", c.n, got, c.want)
		}
		if q := tailPercent(c.n); c.n >= 20 && c.n-1-rankIndex(q, c.n) < minBeyond {
			t.Errorf("tailPercent(%d) = p%d leaves fewer than %d samples beyond it", c.n, q, minBeyond)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		q    int
		want float64
	}{{50, 50}, {90, 90}, {1, 1}, {100, 100}} {
		if got := percentile(s, c.q); got != c.want {
			t.Errorf("p%d = %v, want %v", c.q, got, c.want)
		}
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
}

// The benchmark contract's grammar: a name starts with a letter or a
// digit and has at most 64 letters, digits, '_', '.' and '-'; a unit has
// at most 16 letters, digits, '_', '/', '%', '.' and '-'.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func validMetricName(s string) bool { return nameRE.MatchString(s) }
func validUnit(s string) bool       { return unitRE.MatchString(s) }

func TestMetricNameGrammar(t *testing.T) {
	for _, ok := range []string{"setup_s", "apiserver.handler_us.point", "9lives", "a-b.c_d"} {
		if !validMetricName(ok) {
			t.Errorf("%q should be a valid name", ok)
		}
	}
	long := make([]byte, 65)
	for i := range long {
		long[i] = 'a'
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "p99%", string(long)} {
		if validMetricName(bad) {
			t.Errorf("%q should be rejected", bad)
		}
	}
	for _, ok := range []string{"ms", "1/s", "%", "count", "MB"} {
		if !validUnit(ok) {
			t.Errorf("unit %q should be valid", ok)
		}
	}
	seen := make(map[string]bool)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validMetricName(d.Name) || !validUnit(d.Unit) {
			t.Errorf("metric %q unit %q breaks the grammar", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// The Go tables and BENCHMARK.json must describe the same metrics.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the code %d+%d",
			len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range spec.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, code has %+v", i, m, d)
		}
	}
	for i, m := range spec.PerLayer {
		if d := perLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, code has %+v", i, m, d)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the code %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
}

func TestSelfTime(t *testing.T) {
	base := time.Unix(1000, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	spans := []span{
		{name: "bench.op", id: 1, start: at(0), end: at(100)},
		{name: "core.a", id: 2, parent: 1, start: at(10), end: at(40)},
		{name: "core.b", id: 3, parent: 1, start: at(30), end: at(60)}, // overlaps core.a
		{name: "paths.c", id: 4, parent: 3, start: at(35), end: at(45)},
	}
	self := selfTime(spans)
	for layer, want := range map[string]time.Duration{
		"bench": 50 * time.Millisecond, // children cover 10–60 once
		"core":  50 * time.Millisecond, // a 30, b 30 minus its child's 10
		"paths": 10 * time.Millisecond,
	} {
		if got := self[layer]; got != want {
			t.Errorf("%s self time = %v, want %v", layer, got, want)
		}
	}
}
