package stream

import (
	"context"
	"net/netip"
	"regexp"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/obs"
	"github.com/asrank-go/asrank/internal/trace"
)

// route is one announcement in the crafted tables below; the vantage
// point is the path's first hop.
type route struct {
	pfx  string
	asns []uint32
}

func announce(e *Engine, rs ...route) {
	for _, r := range rs {
		e.Announce("rrc00", r.asns[0], netip.MustParsePrefix(r.pfx), r.asns)
	}
}

func withdraw(e *Engine, rs ...route) {
	for _, r := range rs {
		e.Withdraw("rrc00", r.asns[0], netip.MustParsePrefix(r.pfx))
	}
}

// A triangle of transit ASes 1, 2 and 3 (the clique), each with one
// stub customer (10, 20, 30) that is also a vantage point.
var (
	triangle = []route{
		{"10.0.0.0/8", []uint32{10, 1, 2, 20}},
		{"11.0.0.0/8", []uint32{10, 1, 3, 30}},
		{"20.0.0.0/8", []uint32{20, 2, 3, 30}},
		{"21.0.0.0/8", []uint32{20, 2, 1, 10}},
		{"30.0.0.0/8", []uint32{30, 3, 1, 10}},
		{"31.0.0.0/8", []uint32{30, 3, 2, 20}},
	}
	// sameASes adds the link 2–30 between ASes the table already has,
	// entered from 2's peer 1, so 30 joins 2's cone.
	sameASes = route{"12.0.0.0/8", []uint32{10, 1, 2, 30}}
	// newStub brings AS 40 in behind 3; the clique keeps its members.
	newStub = route{"13.0.0.0/8", []uint32{10, 1, 3, 40}}
	// link23 carries every route over the 2–3 clique link.
	link23 = []route{triangle[2], triangle[5]}
)

// TestCommitDecisionTable drives one engine through each commit
// decision rule and checks the reported decision, reason and slab
// path, and the Stats counter each one bumps.
func TestCommitDecisionTable(t *testing.T) {
	e := New(Options{})
	var prev Stats
	for _, tc := range []struct {
		name                   string
		events                 func()
		decision, reason, slab string
		clique                 []uint32
	}{
		{"initial", func() { announce(e, triangle...) },
			DecisionRebuild, ReasonInitial, SlabFull, []uint32{1, 2, 3}},
		{"steady, same AS set", func() { announce(e, sameASes) },
			DecisionIncremental, ReasonSteady, SlabPatched, []uint32{1, 2, 3}},
		{"eventless", func() {},
			DecisionIncremental, ReasonSteady, SlabReused, []uint32{1, 2, 3}},
		{"steady, AS set changed", func() { announce(e, newStub) },
			DecisionIncremental, ReasonSteady, SlabFull, []uint32{1, 2, 3}},
		{"clique churn", func() { withdraw(e, link23...) },
			DecisionRebuild, ReasonCliqueChurn, SlabFull, nil},
	} {
		tc.events()
		snap, rep := e.CommitEpoch(context.Background())
		if rep.Decision != tc.decision || rep.Reason != tc.reason || rep.Slab != tc.slab {
			t.Errorf("%s: %s/%s slab %s, want %s/%s slab %s", tc.name,
				rep.Decision, rep.Reason, rep.Slab, tc.decision, tc.reason, tc.slab)
		}
		if tc.clique != nil && !equalASNSlices(snap.Clique, tc.clique) {
			t.Errorf("%s: clique %v, want %v", tc.name, snap.Clique, tc.clique)
		}
		if tc.clique == nil && equalASNSlices(snap.Clique, []uint32{1, 2, 3}) {
			t.Errorf("%s: clique still %v", tc.name, snap.Clique)
		}
		st := e.Stats()
		want := prev
		want.Epochs++
		if tc.decision == DecisionRebuild {
			want.FullRebuilds++
		}
		switch tc.slab {
		case SlabFull:
			want.FullSlabs++
		case SlabPatched:
			want.Patched++
		case SlabReused:
			want.Reused++
		}
		want.Entries, want.RIBRoutes = st.Entries, st.RIBRoutes
		if st != want {
			t.Errorf("%s: stats %+v, want %+v", tc.name, st, want)
		}
		prev = st
	}
}

// TestCommitStagesMatchReport traces several commits and holds the
// three sinks of each phase to one measurement: every CommitReport
// phase equals its stream.commit.* span's duration exactly, the
// batch engine's core.infer.* spans nest under stream.commit.infer,
// and each phase histogram gains exactly one observation per epoch.
func TestCommitStagesMatchReport(t *testing.T) {
	tr := trace.New(trace.Options{})
	e := New(Options{})
	epochs := []func(){
		func() { announce(e, triangle...) },
		func() { announce(e, sameASes) },
		func() {},
		func() { announce(e, newStub) },
		func() { withdraw(e, link23...) },
	}
	phases := []string{"rank_clique", "infer", "credit", "slab", "compose"}
	for i, events := range epochs {
		events()
		before := make(map[string]uint64)
		for _, p := range phases {
			before[p] = commitPhaseDuration.With(p).Count()
		}
		commits := commitDuration.Count()

		capture := tr.NewCapture(0)
		ctx, root := tr.StartSpan(context.Background(), "test.epoch")
		_, rep := e.CommitEpoch(ctx)
		root.End()
		capture.Stop()

		byName := make(map[string]*trace.Span)
		var inferSteps []*trace.Span
		for _, s := range capture.Spans() {
			if strings.HasPrefix(s.Name, "core.infer.") {
				inferSteps = append(inferSteps, s)
			} else if byName[s.Name] != nil {
				t.Fatalf("epoch %d: two %s spans", i, s.Name)
			} else {
				byName[s.Name] = s
			}
		}
		commit := byName["stream.commit"]
		if commit == nil || commit.Parent != root.ID {
			t.Fatalf("epoch %d: no stream.commit span under the caller's span", i)
		}
		if rep.TotalMillis != millis(commit.Dur) {
			t.Errorf("epoch %d: total %vms, span %vms", i, rep.TotalMillis, millis(commit.Dur))
		}
		for _, p := range []struct {
			name string
			ms   float64
		}{
			{"rank_clique", rep.Phases.RankClique},
			{"infer", rep.Phases.Infer},
			{"credit", rep.Phases.Credit},
			{"slab", rep.Phases.Slab},
			{"compose", rep.Phases.Compose},
		} {
			s := byName["stream.commit."+p.name]
			if s == nil || s.Parent != commit.ID {
				t.Fatalf("epoch %d: no stream.commit.%s span under stream.commit", i, p.name)
			}
			if p.ms != millis(s.Dur) {
				t.Errorf("epoch %d: %s report %vms, span %vms", i, p.name, p.ms, millis(s.Dur))
			}
			if got := commitPhaseDuration.With(p.name).Count() - before[p.name]; got != 1 {
				t.Errorf("epoch %d: %s histogram gained %d observations, want 1", i, p.name, got)
			}
		}
		if got := commitDuration.Count() - commits; got != 1 {
			t.Errorf("epoch %d: commit histogram gained %d observations, want 1", i, got)
		}
		if len(inferSteps) == 0 {
			t.Errorf("epoch %d: no core.infer.* spans", i)
		}
		for _, s := range inferSteps {
			if s.Parent != byName["stream.commit.infer"].ID {
				t.Errorf("epoch %d: %s is not a child of stream.commit.infer", i, s.Name)
			}
		}

		// The commit histogram carries the epoch's trace as an exemplar.
		re := regexp.MustCompile(`asrank_stream_commit_duration_seconds_bucket\{[^}]*\} \d+ # \{trace_id="` +
			root.Trace.String() + `"\}`)
		if !re.MatchString(obs.Default().ExposeOpenMetrics()) {
			t.Errorf("epoch %d: no commit-duration exemplar for trace %s", i, root.Trace)
		}
	}
}
