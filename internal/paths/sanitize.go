package paths

import (
	"context"
	"encoding/binary"
	"net/netip"
	"slices"

	"github.com/asrank-go/asrank/internal/asn"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/trace"
)

// SanitizeOptions controls the sanitization pass.
type SanitizeOptions struct {
	// IXPASes are route-server ASNs to splice out of paths; IXP route
	// servers are not party to the business relationship between the
	// ASes they connect.
	IXPASes map[uint32]bool
	// KeepDuplicates retains byte-identical (collector, prefix, path)
	// duplicates instead of collapsing them.
	KeepDuplicates bool
	// Workers bounds the worker pool that cleans path shards in
	// parallel; <= 0 selects runtime.GOMAXPROCS. Worker count never
	// changes results: per-path cleaning is independent, and so is
	// the hash of each surviving row's duplicate identity, computed in
	// the same parallel phase; the order-dependent bookkeeping (stats,
	// dedup, output order) runs over the cleaned shards in input order.
	Workers int
}

// SanitizeStats counts what the sanitization pass did, feeding the
// input-data summary experiment (R1).
type SanitizeStats struct {
	Input             int // paths in
	Kept              int // paths out
	PrependingRemoved int // paths that had prepending compressed
	IXPSpliced        int // paths that had an IXP ASN removed
	ReservedDiscarded int // paths discarded for reserved/private ASNs
	LoopDiscarded     int // paths discarded for AS loops
	TooShort          int // paths with fewer than 2 hops after cleaning
	Duplicates        int // exact duplicates collapsed
}

// Sanitize applies the paper's step-1 cleaning to ds and returns a new
// dataset: prepending is compressed, IXP route-server ASNs are spliced
// out, and paths containing reserved ASNs or loops are discarded, as are
// (by default) exact duplicates.
//
// Per-path cleaning is sharded across a worker pool (SanitizeOptions.
// Workers); the discard/dedup bookkeeping then walks the cleaned paths
// in input order, so output and stats are identical at any worker count.
// PrependingRemoved and IXPSpliced count kept paths only, preserving
// Input == Kept + ReservedDiscarded + LoopDiscarded + TooShort +
// Duplicates with each kept row attributable to the corpus that
// inference actually sees.
func Sanitize(ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	return SanitizeCtx(context.Background(), ds, opts)
}

// SanitizeCtx is Sanitize with a context for tracing: when ctx carries
// a span, the pass records a "paths.sanitize" span with per-stage
// children ("paths.sanitize.clean" fans per-shard pool.task spans
// across the worker goroutines; "paths.sanitize.sweep" is the
// sequential bookkeeping walk) and input/kept counts as attributes.
func SanitizeCtx(ctx context.Context, ds *Dataset, opts SanitizeOptions) (*Dataset, SanitizeStats) {
	ctx, stage := trace.StartStage(ctx, "paths.sanitize", sanDuration)
	stats := SanitizeStats{Input: len(ds.Paths)}
	out := &Dataset{Paths: make([]Path, 0, len(ds.Paths))}

	type cleanedPath struct {
		asns []uint32
		info pathInfo
		hash uint64 // dupHash of the cleaned row, when deduplicating
	}
	cleanedPaths := make([]cleanedPath, len(ds.Paths))
	cleanCtx, cleanSpan := trace.StartSpan(ctx, "paths.sanitize.clean")
	pool.RangeCtx(cleanCtx, opts.Workers, len(ds.Paths), func(_ context.Context, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			p := ds.Paths[i]
			asns, info := sanitizePath(p.ASNs, opts.IXPASes)
			cleanedPaths[i] = cleanedPath{asns: asns, info: info}
			if !opts.KeepDuplicates {
				cleanedPaths[i].hash = dupHash(p.Collector, p.Prefix, asns)
			}
		}
	})
	cleanSpan.End()

	_, sweepSpan := trace.StartSpan(ctx, "paths.sanitize.sweep")
	var seen dupSet
	if !opts.KeepDuplicates {
		seen = newDupSet(len(ds.Paths))
	}
	for i, p := range ds.Paths {
		cleaned, info := cleanedPaths[i].asns, cleanedPaths[i].info
		switch info {
		case pathReserved:
			stats.ReservedDiscarded++
			continue
		case pathLoop:
			stats.LoopDiscarded++
			continue
		}
		if len(cleaned) < 2 {
			stats.TooShort++
			continue
		}
		np := Path{Collector: p.Collector, Prefix: p.Prefix, ASNs: cleaned}
		if !opts.KeepDuplicates && !seen.insert(out.Paths, np, cleanedPaths[i].hash) {
			stats.Duplicates++
			continue
		}
		if info&pathPrepended != 0 {
			stats.PrependingRemoved++
		}
		if info&pathIXP != 0 {
			stats.IXPSpliced++
		}
		out.Add(np)
	}
	sweepSpan.End()
	stats.Kept = len(out.Paths)
	if span := stage.Span(); span != nil {
		span.SetAttrInt("input", int64(stats.Input))
		span.SetAttrInt("kept", int64(stats.Kept))
		span.SetAttrInt("duplicates", int64(stats.Duplicates))
	}
	stage.End()
	stats.record()
	return out, stats
}

// SanitizeOne applies the per-path half of the step-1 cleaning to a
// single AS path: prepending compressed, IXP route-server ASNs spliced
// out, reserved-ASN and loop paths discarded, too-short results
// discarded. It returns the cleaned hops and whether the path survives
// — exactly the keep/clean decision Sanitize makes for each input row,
// minus the corpus-level duplicate collapse (a streaming consumer
// reference-counts distinct cleaned paths itself). The returned slice
// is freshly allocated.
func SanitizeOne(asns []uint32, ixp map[uint32]bool) ([]uint32, bool) {
	cleaned, info := sanitizePath(asns, ixp)
	if info < 0 || len(cleaned) < 2 {
		return nil, false
	}
	return cleaned, true
}

// flags describing what sanitizePath observed; the two discard reasons
// are exclusive sentinel values.
type pathInfo int

const (
	pathPrepended pathInfo = 1 << iota
	pathIXP

	pathReserved pathInfo = -1
	pathLoop     pathInfo = -2
)

// sanitizePath compresses prepending, splices IXP ASNs, and classifies
// the path. It returns nil and a sentinel for discarded paths.
func sanitizePath(asns []uint32, ixp map[uint32]bool) ([]uint32, pathInfo) {
	var info pathInfo
	cleaned := make([]uint32, 0, len(asns))
	for _, a := range asns {
		if ixp[a] {
			info |= pathIXP
			continue
		}
		if asn.IsReserved(a) {
			return nil, pathReserved
		}
		if n := len(cleaned); n > 0 && cleaned[n-1] == a {
			info |= pathPrepended
			continue
		}
		cleaned = append(cleaned, a)
	}
	if hasRepeat(cleaned) {
		return nil, pathLoop // after compression any repeat is a loop
	}
	return cleaned, info
}

// loopScanMax is the longest path hasRepeat checks by pairwise scan;
// real AS paths are far shorter, and longer ones go through a set so
// the check stays linear.
const loopScanMax = 32

// hasRepeat reports whether any ASN occurs twice in asns.
func hasRepeat(asns []uint32) bool {
	if len(asns) > loopScanMax {
		seen := make(map[uint32]bool, len(asns))
		for _, a := range asns {
			if seen[a] {
				return true
			}
			seen[a] = true
		}
		return false
	}
	for i := 1; i < len(asns); i++ {
		if slices.Contains(asns[:i], asns[i]) {
			return true
		}
	}
	return false
}

// dupSet is the duplicate filter of the sweep: it finds a row among
// the rows kept so far by the hash of its duplicate identity, then
// compares candidates exactly (sameRow), so two rows collapse only when
// they are equal, never on a hash match alone. It stores row indexes;
// the rows themselves are the caller's kept slice.
type dupSet struct {
	head map[uint64]int32 // hash -> newest kept row with that hash
	next []int32          // next[i]: older kept row with row i's hash, or -1
}

// newDupSet returns a set sized for up to n rows.
func newDupSet(n int) dupSet {
	return dupSet{head: make(map[uint64]int32, n), next: make([]int32, 0, n)}
}

// insert reports whether p is new among kept, the rows inserted so far
// in insertion order. If it is, insert records p as kept[len(kept)],
// and the caller must append it. h must be a function of p's duplicate
// identity alone (dupHash); it only narrows the candidates to compare.
func (s *dupSet) insert(kept []Path, p Path, h uint64) bool {
	head, ok := s.head[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = s.next[i] {
		if sameRow(kept[i], p) {
			return false
		}
	}
	s.head[h] = int32(len(s.next))
	s.next = append(s.next, head)
	return true
}

// sameRow is the duplicate identity of two rows: equal collector,
// equal prefix, equal hops. Prefixes compare as netip values, so
// 1.2.3.0/24 and ::ffff:1.2.3.0/24 stay apart, and every invalid prefix
// counts as equal to every other.
func sameRow(a, b Path) bool {
	return a.Collector == b.Collector && dupPrefix(a.Prefix) == dupPrefix(b.Prefix) &&
		slices.Equal(a.ASNs, b.ASNs)
}

// dupPrefix normalizes every invalid prefix to the zero Prefix, which
// == would otherwise tell apart by their leftover address bits.
func dupPrefix(p netip.Prefix) netip.Prefix {
	if !p.IsValid() {
		return netip.Prefix{}
	}
	return p
}

// dupHash is FNV-1a over a row's duplicate identity: the collector
// byte by byte, then the normalized prefix (address family, address
// halves, bit length) and the hops one word per round.
func dupHash(collector string, pfx netip.Prefix, asns []uint32) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i := 0; i < len(collector); i++ {
		h = (h ^ uint64(collector[i])) * prime
	}
	pfx = dupPrefix(pfx)
	a16 := pfx.Addr().As16()
	var family uint64
	if pfx.Addr().Is4() {
		family = 1 << 8
	}
	h = (h ^ binary.BigEndian.Uint64(a16[:8])) * prime
	h = (h ^ binary.BigEndian.Uint64(a16[8:])) * prime
	h = (h ^ (family | uint64(uint8(pfx.Bits())))) * prime
	for _, a := range asns {
		h = (h ^ uint64(a)) * prime
	}
	return h
}
