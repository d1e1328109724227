package stream

import (
	"math/rand"
	"net/netip"
	"reflect"
	"sort"
	"testing"
)

// TestCorpusOrder checks Corpus against the former comparator, which
// formatted both prefixes on every comparison: rows in (collector, vp,
// prefix string) order. The prefixes are chosen so string order and
// numeric order disagree ("10.0.0.0/8" < "9.0.0.0/8", "1.2.0.0/16" <
// "1.2.0.0/8"), and some routes are dropped by sanitization.
func TestCorpusOrder(t *testing.T) {
	type route struct {
		collector string
		vp        uint32
		prefix    netip.Prefix
	}
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("9.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("100.64.0.0/10"),
		netip.MustParsePrefix("1.2.0.0/16"),
		netip.MustParsePrefix("1.2.0.0/8"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("::ffff:10.0.0.0/104"),
	}
	rng := rand.New(rand.NewSource(1))
	e := New(Options{})
	kept := make(map[route]bool)
	for i := 0; i < 300; i++ {
		r := route{
			collector: []string{"rrc00", "rrc10", "route-views2"}[rng.Intn(3)],
			vp:        []uint32{7, 65, 900, 3356}[rng.Intn(4)],
			prefix:    prefixes[rng.Intn(len(prefixes))],
		}
		hops := []uint32{r.vp, 10 + uint32(rng.Intn(20)), 40 + uint32(rng.Intn(20))}
		if rng.Intn(8) == 0 {
			hops = append(hops, r.vp) // a loop: sanitization drops the route
		}
		e.Announce(r.collector, r.vp, r.prefix, hops)
		kept[r] = len(hops) == 3
	}

	var want []route
	for r, ok := range kept {
		if ok {
			want = append(want, r)
		}
	}
	sort.Slice(want, func(i, j int) bool {
		a, b := want[i], want[j]
		if a.collector != b.collector {
			return a.collector < b.collector
		}
		if a.vp != b.vp {
			return a.vp < b.vp
		}
		return a.prefix.String() < b.prefix.String()
	})

	var got []route
	for _, p := range e.Corpus().Paths {
		got = append(got, route{collector: p.Collector, vp: p.ASNs[0], prefix: p.Prefix})
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Corpus rows %v\nwant %v", got, want)
	}
}
