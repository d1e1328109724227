package stream

import (
	"bytes"
	"context"
	"encoding/json"
	"math/rand"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/warehouse"
)

// TestSoakCancellingChurn bootstraps a simulated table, then runs 200
// epochs of churn whose net effect cancels: each odd epoch withdraws
// some routes and replaces others with an alternative (a detour through
// another route's hops, or a path sanitize drops), and the following
// epoch restores every one of them. Afterwards every refcounted
// structure must be back at its bootstrap size and the committed
// snapshot must encode byte for byte like the bootstrap epoch's: a
// leaked entry, link-index slot or prefix reference would show in one
// of them.
func TestSoakCancellingChurn(t *testing.T) {
	p := topology.DefaultParams(5)
	p.ASes = 200
	simOpts := bgpsim.DefaultOptions(5)
	simOpts.NumVPs = 6
	sim, err := bgpsim.Run(topology.Generate(p), simOpts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	e := New(Options{Workers: 2})

	// The table is the last route announced per RIB slot.
	table := make(map[ribKey]paths.Path)
	var slots []ribKey
	for _, r := range sim.Dataset.Paths {
		rk := ribKey{collector: r.Collector, vp: r.ASNs[0], prefix: r.Prefix}
		if _, ok := table[rk]; !ok {
			slots = append(slots, rk)
		}
		table[rk] = r
		e.Announce(r.Collector, rk.vp, r.Prefix, r.ASNs)
	}
	encode := func(s *warehouse.Snapshot) []byte {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	sizes := func() [7]int {
		e.mu.Lock()
		defer e.mu.Unlock()
		return [7]int{len(e.rib), len(e.entries), len(e.linkIndex), len(e.pfxRef),
			len(e.pfxCount), len(e.ix.Links()), e.ix.PathCount()}
	}
	boot := encode(e.Commit(ctx))
	want := sizes()

	rng := rand.New(rand.NewSource(9))
	churn := len(slots) / 50
	moved := 0
	var last []byte
	for round := 0; round < 100; round++ {
		picks := rng.Perm(len(slots))[:churn]
		for j, i := range picks {
			rk := slots[i]
			switch j % 3 {
			case 0:
				e.Withdraw(rk.collector, rk.vp, rk.prefix)
			case 1:
				other := table[slots[rng.Intn(len(slots))]].ASNs
				alt := append([]uint32{rk.vp}, other[1:]...)
				e.Announce(rk.collector, rk.vp, rk.prefix, alt)
			default:
				e.Announce(rk.collector, rk.vp, rk.prefix, []uint32{rk.vp, 64512, 7})
			}
		}
		if !bytes.Equal(encode(e.Commit(ctx)), boot) {
			moved++
		}
		for _, i := range picks {
			r := table[slots[i]]
			e.Announce(r.Collector, slots[i].vp, r.Prefix, r.ASNs)
		}
		last = encode(e.Commit(ctx))
	}

	if moved == 0 {
		t.Fatal("no churned epoch changed the snapshot; the soak exercised nothing")
	}
	if got := sizes(); got != want {
		t.Errorf("sizes (rib, entries, linkIndex, pfxRef, pfxCount, links, paths) = %v after the soak, want bootstrap %v", got, want)
	}
	if !bytes.Equal(last, boot) {
		t.Error("final snapshot encodes differently from the bootstrap epoch's")
	}
	t.Logf("%d slots, %d churned per epoch, %d of 100 churned epochs moved the snapshot, stats %+v",
		len(slots), churn, moved, e.Stats())
}
