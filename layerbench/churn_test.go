package main

import (
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/streamtest"
)

func smallChurn(t *testing.T, seed int64) (*collection, *churn) {
	t.Helper()
	col, err := simulate(seed, 400, 6, 6000)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := newChurn(seed, col, 60)
	if err != nil {
		t.Fatal(err)
	}
	return col, ch
}

func TestResizeCorpus(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		col, _ := smallChurn(t, seed)
		if n := len(col.sim.Dataset.Paths); n < 5900 || n > 6000 {
			t.Errorf("seed %d: corpus has %d paths, want about 6000", seed, n)
		}
	}
}

func TestChurnDeterministicPerSeed(t *testing.T) {
	epochs := func(seed int64) [][]streamtest.Event {
		_, ch := smallChurn(t, seed)
		out := [][]streamtest.Event{ch.bootstrap()}
		for i := 0; i < 30; i++ {
			out = append(out, ch.next())
		}
		return out
	}
	a, b := epochs(7), epochs(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two generators from seed 7 produced different events")
	}
	if reflect.DeepEqual(a[1:], epochs(8)[1:]) {
		t.Fatal("seeds 7 and 8 produced the same churn")
	}
}

// Routes leave and come back at the same rate, so after a short
// warm-up the table looks the same at every epoch.
func TestChurnStationary(t *testing.T) {
	col, ch := smallChurn(t, 3)
	table := make(streamtest.Mirror)
	for _, ev := range ch.bootstrap() {
		table.Apply(ev)
	}
	size0 := len(table)
	frozen := make(map[streamtest.RouteKey]bool)
	for _, r := range ch.routes {
		if r.frozen {
			frozen[r.key] = true
		}
	}
	var away []int
	for ep := 1; ep <= 400; ep++ {
		evs := ch.next()
		if len(evs) < ch.perEpoch {
			t.Fatalf("epoch %d: %d events, want at least %d", ep, len(evs), ch.perEpoch)
		}
		for _, ev := range evs {
			if frozen[ev.Key] {
				t.Fatalf("epoch %d: churn touched frozen route %+v", ep, ev.Key)
			}
			table.Apply(ev)
		}
		sw, fl, _ := ch.census()
		away = append(away, sw+fl)
		if d := size0 - len(table); d != fl || float64(d) > 0.03*float64(size0) {
			t.Fatalf("epoch %d: table %d routes, bootstrap %d, %d withdrawn", ep, len(table), size0, fl)
		}
	}
	mid, end := meanInts(away[50:100]), meanInts(away[350:400])
	if end > 1.2*mid || end < 0.8*mid {
		t.Errorf("routes away from base: %.1f around epoch 75, %.1f around epoch 375", mid, end)
	}

	// Every announced path is the simulator's, valley-free on the base
	// topology once prepending is folded (a few injected poisoned or
	// private-ASN paths aside).
	bad, alts := 0, 0
	for _, r := range ch.routes {
		if r.alt == nil {
			continue
		}
		alts++
		if !bgpsim.ValleyFree(col.topo, dedupHops(r.alt)) {
			bad++
		}
	}
	if alts == 0 || bad > alts/100 {
		t.Errorf("%d of %d alternative paths are not valley-free on the base topology", bad, alts)
	}
}

func meanInts(xs []int) float64 {
	s := 0
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func dedupHops(p []uint32) []uint32 {
	out := make([]uint32, 0, len(p))
	for i, a := range p {
		if i == 0 || a != p[i-1] {
			out = append(out, a)
		}
	}
	return out
}
