package cone

import (
	"bytes"
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"strings"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/core"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// rels builds a relationship map from (provider, customer) and peer
// pairs.
func rels(p2c [][2]uint32, p2p [][2]uint32) map[paths.Link]topology.Relationship {
	out := map[paths.Link]topology.Relationship{}
	for _, pc := range p2c {
		l := paths.NewLink(pc[0], pc[1])
		if l.A == pc[0] {
			out[l] = topology.P2C
		} else {
			out[l] = topology.C2P
		}
	}
	for _, pp := range p2p {
		out[paths.NewLink(pp[0], pp[1])] = topology.P2P
	}
	return out
}

// hierarchy: 1 > 3 > 5, 1 > 4, 2 > 4 (multihomed), 1 ~ 2, 3 ~ 4.
func hierarchy() *Relations {
	return NewRelations(rels(
		[][2]uint32{{1, 3}, {3, 5}, {1, 4}, {2, 4}},
		[][2]uint32{{1, 2}, {3, 4}},
	))
}

func set(asns ...uint32) map[uint32]bool {
	m := map[uint32]bool{}
	for _, a := range asns {
		m[a] = true
	}
	return m
}

func TestRecursive(t *testing.T) {
	r := hierarchy()
	cones := r.Recursive()
	if !reflect.DeepEqual(cones[1], set(1, 3, 4, 5)) {
		t.Errorf("cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[2], set(2, 4)) {
		t.Errorf("cone(2) = %v", cones[2])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("cone(3) = %v", cones[3])
	}
	if !reflect.DeepEqual(cones[5], set(5)) {
		t.Errorf("cone(5) = %v", cones[5])
	}
	if !reflect.DeepEqual(r.RecursiveOne(1), cones[1]) {
		t.Error("RecursiveOne mismatch")
	}
}

func dsOf(pathList ...[]uint32) *paths.Dataset {
	d := &paths.Dataset{}
	for i, p := range pathList {
		d.Add(paths.Path{
			Collector: "t",
			Prefix:    netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, byte(i), 0}), 24),
			ASNs:      p,
		})
	}
	return d
}

func TestBGPObserved(t *testing.T) {
	r := hierarchy()
	// Path 2~1>3>5: from 1 the descending chain reaches 3 and 5; from 3
	// it reaches 5.
	ds := dsOf([]uint32{2, 1, 3, 5})
	cones := r.BGPObserved(ds)
	if !reflect.DeepEqual(cones[1], set(1, 3, 5)) {
		t.Errorf("BGP cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("BGP cone(3) = %v", cones[3])
	}
	// 4 was never observed with a customer: self cone only.
	if !reflect.DeepEqual(cones[4], set(4)) {
		t.Errorf("BGP cone(4) = %v", cones[4])
	}
	// 1's link to 4 was not observed: 4 not in 1's BGP cone.
	if cones[1][4] {
		t.Error("unobserved customer 4 in BGP cone(1)")
	}
}

func TestBGPObservedChainStopsAtNonCustomer(t *testing.T) {
	r := hierarchy()
	// Path 5<3~4: hop 3→4 is peer, so 3's chain does not extend to 4...
	// and hop 5→3 is c2p (5 is the customer), so 5 has no chain at all.
	ds := dsOf([]uint32{5, 3, 4})
	cones := r.BGPObserved(ds)
	if len(cones[5]) != 1 {
		t.Errorf("cone(5) = %v", cones[5])
	}
	if cones[3][4] {
		t.Error("peer 4 leaked into 3's cone")
	}
}

func TestProviderPeerObserved(t *testing.T) {
	r := hierarchy()
	ds := dsOf(
		[]uint32{2, 1, 3, 5}, // enters 1 from peer 2: chain 3,5 credited to 1; enters 3 from provider 1: 5 credited to 3
		[]uint32{5, 3, 4},    // 5 is a VP: no entry; 3 entered from customer 5: nothing credited
	)
	cones := r.ProviderPeerObserved(ds)
	if !reflect.DeepEqual(cones[1], set(1, 3, 5)) {
		t.Errorf("PP cone(1) = %v", cones[1])
	}
	if !reflect.DeepEqual(cones[3], set(3, 5)) {
		t.Errorf("PP cone(3) = %v", cones[3])
	}
	// VP-position chains are not credited in PP cones.
	vpOnly := r.ProviderPeerObserved(dsOf([]uint32{1, 3, 5}))
	if len(vpOnly[1]) != 1 {
		t.Errorf("PP cone(1) from VP position = %v", vpOnly[1])
	}
	// But BGP-observed credits them.
	bgp := r.BGPObserved(dsOf([]uint32{1, 3, 5}))
	if !reflect.DeepEqual(bgp[1], set(1, 3, 5)) {
		t.Errorf("BGP cone(1) from VP position = %v", bgp[1])
	}
}

func TestSizesAndPrefixWeighted(t *testing.T) {
	r := hierarchy()
	cones := r.Recursive()
	sizes := cones.Sizes()
	if sizes[1] != 4 || sizes[5] != 1 {
		t.Errorf("sizes = %v", sizes)
	}
	weighted := cones.PrefixWeighted(map[uint32]int{1: 10, 3: 2, 4: 3, 5: 1})
	if weighted[1] != 16 {
		t.Errorf("prefix-weighted cone(1) = %d", weighted[1])
	}
	if weighted[3] != 3 {
		t.Errorf("prefix-weighted cone(3) = %d", weighted[3])
	}
}

func TestRank(t *testing.T) {
	sizes := map[uint32]int{1: 10, 2: 10, 3: 50}
	td := map[uint32]int{1: 5, 2: 9}
	rank := Rank(sizes, td)
	if !reflect.DeepEqual(rank, []uint32{3, 2, 1}) {
		t.Errorf("rank = %v", rank)
	}
	// Nil tie-break map: ASN ascending.
	rank = Rank(map[uint32]int{7: 1, 5: 1}, nil)
	if !reflect.DeepEqual(rank, []uint32{5, 7}) {
		t.Errorf("rank = %v", rank)
	}
}

// TestRankMatchesReference checks the keyed sort against the former
// sort.Slice with map lookups in its comparator, on sizes and transit
// degrees drawn from small ranges so most ASes tie on both keys, with a
// transit map that misses some ASes and with none at all.
func TestRankMatchesReference(t *testing.T) {
	ref := func(sizes, transit map[uint32]int) []uint32 {
		out := make([]uint32, 0, len(sizes))
		for asn := range sizes {
			out = append(out, asn)
		}
		sort.Slice(out, func(i, j int) bool {
			a, b := out[i], out[j]
			if sizes[a] != sizes[b] {
				return sizes[a] > sizes[b]
			}
			if transit[a] != transit[b] {
				return transit[a] > transit[b]
			}
			return a < b
		})
		return out
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		sizes := make(map[uint32]int)
		transit := make(map[uint32]int)
		for len(sizes) < 500 {
			asn := 1 + uint32(rng.Intn(100000))
			sizes[asn] = 1 + rng.Intn(4)
			if rng.Intn(4) > 0 {
				transit[asn] = rng.Intn(3)
			}
		}
		for _, td := range []map[uint32]int{transit, nil} {
			if got, want := Rank(sizes, td), ref(sizes, td); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: Rank differs from the reference order", seed)
			}
		}
	}
}

func TestRelOrientationAndASes(t *testing.T) {
	r := hierarchy()
	if r.Rel(1, 3) != topology.P2C || r.Rel(3, 1) != topology.C2P {
		t.Error("Rel orientation wrong")
	}
	if r.Rel(1, 2) != topology.P2P {
		t.Error("peer rel wrong")
	}
	if r.Rel(1, 99) != topology.None {
		t.Error("missing link should be None")
	}
	if !reflect.DeepEqual(r.ASes(), []uint32{1, 2, 3, 4, 5}) {
		t.Errorf("ASes = %v", r.ASes())
	}
}

// TestConeNesting verifies PP ⊆ BGP-observed ⊆ recursive on a full
// simulated corpus with inferred relationships.
func TestConeNesting(t *testing.T) {
	p := topology.DefaultParams(77)
	p.ASes = 500
	topo := topology.Generate(p)
	sim, err := bgpsim.Run(topo, bgpsim.DefaultOptions(77))
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	r := NewRelations(res.Rels)
	rec := r.Recursive()
	bgp := r.BGPObserved(res.Dataset)
	pp := r.ProviderPeerObserved(res.Dataset)
	for _, asn := range r.ASes() {
		if !pp[asn][asn] || !bgp[asn][asn] || !rec[asn][asn] {
			t.Fatalf("AS %d missing from its own cone", asn)
		}
		for member := range pp[asn] {
			if !bgp[asn][member] {
				t.Fatalf("PP cone(%d) member %d not in BGP cone", asn, member)
			}
		}
		for member := range bgp[asn] {
			if !rec[asn][member] {
				t.Fatalf("BGP cone(%d) member %d not in recursive cone", asn, member)
			}
		}
	}
	// The gap must be real for large transit ASes: total recursive mass
	// strictly exceeds total PP mass.
	var recTotal, ppTotal int
	for _, asn := range r.ASes() {
		recTotal += len(rec[asn])
		ppTotal += len(pp[asn])
	}
	if recTotal <= ppTotal {
		t.Errorf("recursive total %d should exceed PP total %d", recTotal, ppTotal)
	}
}

// TestConeAgainstGroundTruth checks that the PP cone of the top AS is a
// large subset of its true cone.
func TestConeAgainstGroundTruth(t *testing.T) {
	p := topology.DefaultParams(78)
	p.ASes = 500
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(78)
	opts.NumVPs = 25
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	res := core.Infer(clean, core.Options{})
	r := NewRelations(res.Rels)
	rec := r.Recursive()

	// Compare recursive inferred cones vs ground-truth cones across the
	// inferred clique. Per-member recall varies with VP visibility (a
	// multihomed customer routed via its other provider leaves no trace
	// of this link), so assert aggregate recall and precision.
	var hits, truthTotal, inferredTotal int
	for _, t1 := range res.Clique {
		truth := topo.TrueCone(t1)
		inferred := rec[t1]
		for member := range inferred {
			if truth[member] {
				hits++
			}
		}
		truthTotal += len(truth)
		inferredTotal += len(inferred)
	}
	if recall := float64(hits) / float64(truthTotal); recall < 0.7 {
		t.Errorf("aggregate clique cone recall = %.3f, want >= 0.7", recall)
	}
	if precision := float64(hits) / float64(inferredTotal); precision < 0.9 {
		t.Errorf("aggregate clique cone precision = %.3f, want >= 0.9", precision)
	}
}

func TestAddressAndPrefixCounts(t *testing.T) {
	ds := &paths.Dataset{}
	add := func(prefix string, asns ...uint32) {
		ds.Add(paths.Path{Collector: "c", Prefix: netip.MustParsePrefix(prefix), ASNs: asns})
	}
	add("10.0.0.0/24", 1, 2, 5)
	add("10.0.0.0/24", 3, 2, 5) // same prefix, other VP: counted once
	add("10.0.1.0/25", 1, 2, 5)
	add("10.9.0.0/16", 1, 2, 6)
	pc := PrefixCounts(ds)
	if pc[5] != 2 || pc[6] != 1 {
		t.Errorf("prefix counts = %v", pc)
	}
	ac := AddressCounts(ds)
	if ac[5] != 256+128 {
		t.Errorf("addresses(5) = %d", ac[5])
	}
	if ac[6] != 65536 {
		t.Errorf("addresses(6) = %d", ac[6])
	}
}

// TestPrefixCountsMappedAndPlain counts an IPv4 prefix and its
// IPv4-mapped IPv6 form as two prefixes of their origin, and a prefix
// repeated under other collectors and VPs once.
func TestPrefixCountsMappedAndPlain(t *testing.T) {
	ds := &paths.Dataset{}
	add := func(collector, prefix string, asns ...uint32) {
		ds.Add(paths.Path{Collector: collector, Prefix: netip.MustParsePrefix(prefix), ASNs: asns})
	}
	add("c", "1.2.3.0/24", 1, 5)
	add("c", "::ffff:1.2.3.0/24", 1, 5)
	add("d", "1.2.3.0/24", 2, 5)
	add("d", "::ffff:1.2.3.0/24", 2, 5)
	add("c", "1.2.3.0/24", 1, 6)
	ds.Add(paths.Path{Collector: "c", ASNs: []uint32{1, 7}}) // no prefix: not counted
	pc := PrefixCounts(ds)
	if want := map[uint32]int{5: 2, 6: 1}; !reflect.DeepEqual(pc, want) {
		t.Errorf("prefix counts = %v, want %v", pc, want)
	}
}

func TestAddressCountsIs4In6(t *testing.T) {
	ds := &paths.Dataset{}
	add := func(prefix string, asns ...uint32) {
		ds.Add(paths.Path{Collector: "c", Prefix: netip.MustParsePrefix(prefix), ASNs: asns})
	}
	// MRT feeds can carry IPv4 prefixes in IPv4-mapped IPv6 form; the
	// embedded /24 must be counted like its plain-IPv4 twin.
	add("::ffff:10.0.0.0/120", 1, 2, 5)
	if got := AddressCounts(ds)[5]; got != 256 {
		t.Errorf("addresses(5) from 4-in-6 prefix = %d, want 256", got)
	}
	// The plain-IPv4 form of the same prefix is a duplicate, not new
	// address space.
	add("10.0.0.0/24", 1, 2, 5)
	add("10.1.0.0/24", 1, 2, 5)
	if got := AddressCounts(ds)[5]; got != 512 {
		t.Errorf("addresses(5) after plain duplicate + new /24 = %d, want 512", got)
	}
	// Native IPv6 and mapped prefixes shorter than /96 stay excluded.
	add("2001:db8::/32", 1, 2, 6)
	add("::ffff:0.0.0.0/64", 1, 2, 6)
	if got := AddressCounts(ds)[6]; got != 0 {
		t.Errorf("addresses(6) from IPv6 prefixes = %d, want 0", got)
	}
}

func TestAddressWeightedCones(t *testing.T) {
	r := hierarchy()
	cones := r.Recursive()
	weighted := cones.AddressWeighted(map[uint32]int64{1: 1000, 3: 256, 4: 512, 5: 128})
	if weighted[1] != 1000+256+512+128 {
		t.Errorf("address-weighted cone(1) = %d", weighted[1])
	}
	if weighted[3] != 256+128 {
		t.Errorf("address-weighted cone(3) = %d", weighted[3])
	}
}

func TestPPDCRoundTrip(t *testing.T) {
	r := hierarchy()
	sets := r.Recursive()
	var buf bytes.Buffer
	if err := WritePPDC(&buf, sets, "ppdc-ases test"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "# ppdc-ases test") {
		t.Error("comment missing")
	}
	if !strings.Contains(out, "1 1 3 4 5\n") {
		t.Errorf("cone line for AS1 missing:\n%s", out)
	}
	got, err := ReadPPDC(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, sets) {
		t.Errorf("round trip:\ngot  %v\nwant %v", got, sets)
	}
}

func TestReadPPDCErrors(t *testing.T) {
	cases := []string{
		"x 1 2",    // bad ASN
		"1 2 y",    // bad member
		"1 2\n1 3", // duplicate AS
	}
	for i, c := range cases {
		if _, err := ReadPPDC(strings.NewReader(c)); err == nil {
			t.Errorf("case %d (%q) should fail", i, c)
		}
	}
	// Self-membership is restored even if omitted in the file.
	got, err := ReadPPDC(strings.NewReader("7 8 9\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !got[7][7] {
		t.Error("AS not in its own cone after read")
	}
}
