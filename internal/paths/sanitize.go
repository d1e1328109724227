package paths

import (
	"context"
	"encoding/binary"
	"net/netip"

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
	// changes results: per-path cleaning is independent, and the
	// order-dependent bookkeeping (stats, dedup, output order) runs
	// over the cleaned shards in input order.
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
	seen := make(map[string]bool)
	var key []byte

	type cleanedPath struct {
		asns []uint32
		info pathInfo
	}
	cleanedPaths := make([]cleanedPath, len(ds.Paths))
	cleanCtx, cleanSpan := trace.StartSpan(ctx, "paths.sanitize.clean")
	pool.RangeCtx(cleanCtx, opts.Workers, len(ds.Paths), func(_ context.Context, _, lo, hi int) {
		for i := lo; i < hi; i++ {
			asns, info := sanitizePath(ds.Paths[i].ASNs, opts.IXPASes)
			cleanedPaths[i] = cleanedPath{asns: asns, info: info}
		}
	})
	cleanSpan.End()

	_, sweepSpan := trace.StartSpan(ctx, "paths.sanitize.sweep")
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
		if !opts.KeepDuplicates {
			key = appendDupKey(key[:0], np)
			if seen[string(key)] {
				stats.Duplicates++
				continue
			}
			seen[string(key)] = true
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
	// After compression any repeat is a loop.
	seen := make(map[uint32]bool, len(cleaned))
	for _, a := range cleaned {
		if seen[a] {
			return nil, pathLoop
		}
		seen[a] = true
	}
	return cleaned, info
}

// appendDupKey appends the duplicate identity of p to b: the collector
// (length-prefixed), the prefix in binary — address family, 16 address
// bytes, bit length — and the hops as raw big-endian bytes. The family
// byte keeps 1.2.3.0/24 apart from ::ffff:1.2.3.0/24; every invalid
// prefix encodes alike.
func appendDupKey(b []byte, p Path) []byte {
	b = binary.AppendUvarint(b, uint64(len(p.Collector)))
	b = append(b, p.Collector...)
	pfx := p.Prefix
	var family byte
	switch {
	case !pfx.IsValid():
		pfx = netip.Prefix{}
	case pfx.Addr().Is4():
		family = 4
	default:
		family = 6
	}
	a16 := pfx.Addr().As16()
	b = append(b, family)
	b = append(b, a16[:]...)
	b = append(b, byte(pfx.Bits()))
	for _, a := range p.ASNs {
		b = binary.BigEndian.AppendUint32(b, a)
	}
	return b
}
