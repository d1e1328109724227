package warehouse

import (
	"net/netip"
	"testing"

	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
)

// smallSnapshot infers a snapshot from a handful of paths.
func smallSnapshot(t *testing.T, hops ...[]uint32) *Snapshot {
	t.Helper()
	ds := &paths.Dataset{}
	for i, h := range hops {
		ds.Add(paths.Path{
			Collector: "t",
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
			ASNs:      h,
		})
	}
	return FromResult(core.Infer(ds, core.Options{}))
}

// TestHistorySharesEqualASColumn checks that an epoch whose AS set
// equals its predecessor's shares that epoch's ASN column, that a
// changed AS set keeps its own, and that per-epoch answers are read
// from each epoch's own columns either way.
func TestHistorySharesEqualASColumn(t *testing.T) {
	a := smallSnapshot(t, []uint32{1, 2, 3}, []uint32{4, 2, 3})
	b := smallSnapshot(t, []uint32{1, 2, 3}, []uint32{4, 2, 3}, []uint32{4, 1, 2})
	c := smallSnapshot(t, []uint32{1, 2, 5})
	if len(a.ASNs) != len(b.ASNs) || a.Degree[0] == b.Degree[0] {
		t.Fatalf("fixture: want equal AS sets with AS 1's degree changed, got %v %v / %v %v", a.ASNs, a.Degree, b.ASNs, b.Degree)
	}

	h := newHistory()
	var prev *Snapshot
	for i, snap := range []*Snapshot{a, b, c} {
		h = h.extend(EpochInfo{ID: uint32(i)}, prev, snap)
		prev = snap
	}
	if &h.series[1].asns[0] != &h.series[0].asns[0] {
		t.Error("epoch 1 keeps its own copy of an AS column equal to epoch 0's")
	}
	if &h.series[2].asns[0] == &h.series[1].asns[0] {
		t.Error("epoch 2 shares a column although its AS set changed")
	}
	for i, snap := range []*Snapshot{a, b, c} {
		if got := h.ASN(1)[i]; got.Degree != snap.Degree[0] {
			t.Errorf("epoch %d: AS 1 degree %d, want %d", i, got.Degree, snap.Degree[0])
		}
	}
}
