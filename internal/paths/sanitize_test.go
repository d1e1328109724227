package paths

import (
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
)

// TestSanitizeStatsArithmetic pins the bookkeeping fix: every input
// path lands in exactly one of the Kept/discard buckets, and the
// PrependingRemoved / IXPSpliced effect counters describe kept paths
// only — a path discarded as too-short or duplicate after cleaning must
// not inflate them.
func TestSanitizeStatsArithmetic(t *testing.T) {
	ds := &Dataset{}
	ds.Add(mkPath(10, 20, 20, 30))     // kept, prepending compressed
	ds.Add(mkPath(10, 20, 20, 30))     // duplicate of the above: effect not counted
	ds.Add(mkPath(10, 10))             // collapses below 2 hops: prepending not counted
	ds.Add(mkPath(10, 555))            // IXP spliced to 1 hop: splice not counted
	ds.Add(mkPath(10, 555, 30))        // kept, IXP spliced
	ds.Add(mkPath(10, 64512, 30))      // reserved ASN
	ds.Add(mkPath(10, 20, 30, 20, 40)) // loop

	out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}})
	want := SanitizeStats{
		Input:             7,
		Kept:              2,
		PrependingRemoved: 1,
		IXPSpliced:        1,
		ReservedDiscarded: 1,
		LoopDiscarded:     1,
		TooShort:          2,
		Duplicates:        1,
	}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if got := stats.Kept + stats.ReservedDiscarded + stats.LoopDiscarded + stats.TooShort + stats.Duplicates; got != stats.Input {
		t.Errorf("buckets sum to %d, want Input = %d", got, stats.Input)
	}
	if out.NumPaths() != stats.Kept {
		t.Errorf("output has %d paths, stats.Kept = %d", out.NumPaths(), stats.Kept)
	}
}

// TestSanitizeParallelDeterministic checks that worker count never
// changes the output dataset or the stats.
func TestSanitizeParallelDeterministic(t *testing.T) {
	ds := &Dataset{}
	// A mix big enough that shards straddle every discard class.
	for i := 0; i < 200; i++ {
		base := uint32(1000 + i)
		ds.Add(mkPath(10, base, base+1, base+2))
		ds.Add(mkPath(10, base, base, base+1)) // prepending
		ds.Add(mkPath(10, base, base+1, base+2))
		if i%5 == 0 {
			ds.Add(mkPath(10, 64512, base)) // reserved
			ds.Add(mkPath(10, base, 20, base, 30))
			ds.Add(mkPath(10, 555, base)) // splices too short
		}
	}
	wantOut, wantStats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}, Workers: 1})
	for _, workers := range []int{2, 7, 32} {
		out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}, Workers: workers})
		if stats != wantStats {
			t.Fatalf("workers=%d: stats = %+v, want %+v", workers, stats, wantStats)
		}
		if !reflect.DeepEqual(out, wantOut) {
			t.Fatalf("workers=%d: output dataset differs from sequential run", workers)
		}
	}
}

// TestSanitizeDupKeyPrefixes checks the binary prefix in the duplicate
// key: an exact (collector, prefix, hops) repeat collapses, while an
// IPv4 prefix and its IPv4-mapped IPv6 form, the same path under two
// prefixes, or under two collectors, stay apart.
func TestSanitizeDupKeyPrefixes(t *testing.T) {
	row := func(collector, prefix string) Path {
		return Path{Collector: collector, Prefix: netip.MustParsePrefix(prefix), ASNs: []uint32{10, 20, 30}}
	}
	ds := &Dataset{}
	ds.Add(row("c1", "1.2.3.0/24"))
	ds.Add(row("c1", "::ffff:1.2.3.0/24"))
	ds.Add(row("c1", "1.2.3.0/24")) // exact repeat of row 0
	ds.Add(row("c1", "1.2.4.0/24"))
	ds.Add(row("c2", "1.2.3.0/24"))
	ds.Add(row("c1", "::ffff:1.2.3.0/24")) // exact repeat of row 1
	ds.Add(row("c1", "1.2.3.0/25"))

	out, stats := Sanitize(ds, SanitizeOptions{})
	if stats.Duplicates != 2 {
		t.Errorf("Duplicates = %d, want 2", stats.Duplicates)
	}
	want := []Path{ds.Paths[0], ds.Paths[1], ds.Paths[3], ds.Paths[4], ds.Paths[6]}
	if !reflect.DeepEqual(out.Paths, want) {
		t.Errorf("kept %v, want %v", out.Paths, want)
	}
}

// TestSanitizeStatsFixedCorpus pins SanitizeStats over a fixed
// pseudo-random corpus of every row class — prepending, IXP hops,
// reserved ASNs, loops, too-short paths, and duplicates under IPv4,
// IPv4-mapped, IPv6 and invalid prefixes — to the values the
// string-formatted duplicate key produced.
func TestSanitizeStatsFixedCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prefixes := []netip.Prefix{
		netip.MustParsePrefix("192.0.2.0/24"),
		netip.MustParsePrefix("::ffff:192.0.2.0/120"),
		netip.MustParsePrefix("::ffff:192.0.2.0/24"),
		netip.MustParsePrefix("192.0.2.0/25"),
		netip.MustParsePrefix("2001:db8::/32"),
		{},
		netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 40), // invalid: bits > 32
	}
	ds := &Dataset{}
	for i := 0; i < 4000; i++ {
		asns := make([]uint32, 1+rng.Intn(5))
		for j := range asns {
			switch r := rng.Intn(40); {
			case r == 0:
				asns[j] = 64512 // reserved
			case r == 1:
				asns[j] = 555 // IXP
			case r == 2 && j > 0:
				asns[j] = asns[j-1] // prepending
			default:
				asns[j] = uint32(1 + rng.Intn(6))
			}
		}
		ds.Add(Path{
			Collector: []string{"rrc00", "route-views2"}[rng.Intn(2)],
			Prefix:    prefixes[rng.Intn(len(prefixes))],
			ASNs:      asns,
		})
	}
	out, stats := Sanitize(ds, SanitizeOptions{IXPASes: map[uint32]bool{555: true}})
	want := SanitizeStats{
		Input:             4000,
		Kept:              1231,
		PrependingRemoved: 451,
		IXPSpliced:        87,
		ReservedDiscarded: 300,
		LoopDiscarded:     692,
		TooShort:          975,
		Duplicates:        802,
	}
	if stats != want {
		t.Errorf("stats = %+v, want %+v", stats, want)
	}
	if out.NumPaths() != stats.Kept {
		t.Errorf("output has %d paths, stats.Kept = %d", out.NumPaths(), stats.Kept)
	}
}

// TestDupSetComparesRows forces every row onto one hash: the set must
// still collapse only exact repeats — rows equal in collector, prefix
// and hops, with all invalid prefixes alike — and keep apart an IPv4
// prefix and its IPv4-mapped form, two collectors, two prefix lengths
// and two hop sequences. Sanitize with the real hash keeps the same
// rows.
func TestDupSetComparesRows(t *testing.T) {
	row := func(collector string, pfx netip.Prefix, asns ...uint32) Path {
		return Path{Collector: collector, Prefix: pfx, ASNs: asns}
	}
	v4 := netip.MustParsePrefix("1.2.3.0/24")
	mapped := netip.MustParsePrefix("::ffff:1.2.3.0/24")
	short := netip.MustParsePrefix("1.2.3.0/25")
	bad := netip.PrefixFrom(netip.MustParseAddr("198.51.100.0"), 40) // invalid: bits > 32
	rows := []Path{
		row("c1", v4, 10, 20, 30),
		row("c1", mapped, 10, 20, 30),
		row("c1", v4, 10, 20, 30), // repeat of row 0
		row("c2", v4, 10, 20, 30),
		row("c1", short, 10, 20, 30),
		row("c1", v4, 10, 20, 40),
		row("c1", v4, 10, 20),
		row("c1", mapped, 10, 20, 30), // repeat of row 1
		row("c1", netip.Prefix{}, 10, 20, 30),
		row("c1", bad, 10, 20, 30), // invalid like row 8
		row("c2", bad, 10, 20, 30),
		row("c2", netip.Prefix{}, 10, 20, 30), // invalid like row 10
	}
	want := []Path{rows[0], rows[1], rows[3], rows[4], rows[5], rows[6], rows[8], rows[10]}

	set := newDupSet(0)
	var kept []Path
	dups := 0
	for _, p := range rows {
		if !set.insert(kept, p, 42) {
			dups++
			continue
		}
		kept = append(kept, p)
	}
	if dups != len(rows)-len(want) {
		t.Errorf("duplicates = %d, want %d", dups, len(rows)-len(want))
	}
	if !reflect.DeepEqual(kept, want) {
		t.Errorf("kept %v, want %v", kept, want)
	}

	out, stats := Sanitize(&Dataset{Paths: rows}, SanitizeOptions{})
	if stats.Duplicates != dups || !reflect.DeepEqual(out.Paths, kept) {
		t.Errorf("Sanitize kept %v with %d duplicates, want the forced-collision result", out.Paths, stats.Duplicates)
	}
}

// TestHasRepeatBothLengths checks the loop test on both sides of
// loopScanMax: a repeat anywhere is found, a path of distinct hops is
// not flagged.
func TestHasRepeatBothLengths(t *testing.T) {
	for _, n := range []int{2, loopScanMax, loopScanMax + 1, 3 * loopScanMax} {
		asns := make([]uint32, n)
		for i := range asns {
			asns[i] = uint32(100 + i)
		}
		if hasRepeat(asns) {
			t.Errorf("%d distinct hops flagged as a loop", n)
		}
		asns[n-1] = asns[0]
		if !hasRepeat(asns) {
			t.Errorf("%d hops: repeat of the first hop at the end not found", n)
		}
	}
}
