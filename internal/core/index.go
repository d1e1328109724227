package core

import (
	"cmp"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
)

// Triple is one consecutive-hop context observed in the corpus: Mid was
// seen between Prev and Next in some path. Prev is 0 when Mid is the
// first hop (the vantage point) — the same sentinel step 5 has always
// used for "no entering hop to reason from".
type Triple struct {
	Prev, Mid, Next uint32
}

// VPPair keys the per-vantage-point aggregates of step 6: which origins
// a VP's feed reaches, and which first hops it exits through.
type VPPair struct {
	VP, Other uint32
}

// pairKey is an ordered (AS, neighbor) adjacency used to maintain
// distinct-neighbor counts under reference counting.
type pairKey struct {
	x, y uint32
}

// CorpusIndex holds every corpus-derived aggregate steps 2–9 consume,
// maintained as reference counts so paths can be added and removed in
// any order. The index state is a pure function of the current path
// multiset — adds and removes commute — and its key sets depend only on
// which hop sequences are present, not how often. That is what makes
// incremental inference provably equal to batch (DESIGN.md §15):
// inference reads only key presence and the derived distinct-neighbor
// counts, never the counts of the raw occurrence maps.
//
// The index has two layers mirroring the pipeline's step-4 cut:
//
//   - the ranked layer (AddPath): aggregates over the full sanitized
//     corpus, feeding ranking (step 2) and clique inference (step 3);
//   - the kept layer (AddKept): aggregates over the post-discard corpus
//     (paths not poisoned under the step-3 clique), feeding the
//     intra-clique labeling, provider-less detection, and steps 5–9.
//
// Batch inference builds both layers by folding +1 once per distinct
// hop sequence of a Dataset (the kept layer's adjacency as a clone of
// the ranked layer's, less the poisoned sequences); the streaming
// engine calls the same mutators with ±1 deltas per route entry as
// routes are announced and withdrawn. The two share key sets, not raw
// counts.
type CorpusIndex struct {
	// Ranked layer.
	occur       map[uint32]int     // per-hop AS occurrences (ASes())
	nbrPair     map[pairKey]int    // ordered (AS, neighbor) occurrences
	deg         map[uint32]int     // distinct neighbors, derived from nbrPair
	transitPair map[pairKey]int    // ordered (mid, neighbor) transit occurrences
	transitDeg  map[uint32]int     // distinct transit neighbors, derived
	preLinks    map[paths.Link]int // link occurrences
	preTriples  map[Triple]int     // hop contexts (clique extension evidence)

	// Kept layer.
	pathCount   int
	links       map[paths.Link]int
	triples     map[Triple]int // hop contexts incl. Prev==0 VP contexts (step 5)
	origins     map[uint32]int // per-path origin occurrences (step 6 universe)
	vpOrigins   map[VPPair]int // (VP, origin), len>=2 paths only
	vpFirstHops map[VPPair]int // (VP, first hop), len>=2 paths only
}

// NewCorpusIndex returns an empty index.
func NewCorpusIndex() *CorpusIndex {
	return &CorpusIndex{
		occur:       make(map[uint32]int),
		nbrPair:     make(map[pairKey]int),
		deg:         make(map[uint32]int),
		transitPair: make(map[pairKey]int),
		transitDeg:  make(map[uint32]int),
		preLinks:    make(map[paths.Link]int),
		preTriples:  make(map[Triple]int),
		links:       make(map[paths.Link]int),
		triples:     make(map[Triple]int),
		origins:     make(map[uint32]int),
		vpOrigins:   make(map[VPPair]int),
		vpFirstHops: make(map[VPPair]int),
	}
}

// bump adjusts a reference count, deleting the key at zero so key
// presence always means "at least one backing occurrence". Negative
// counts are a caller bug: a remove of a path never added.
func bump[K comparable](m map[K]int, k K, d int) {
	n := m[k] + d
	switch {
	case n < 0:
		panic("core: corpus index refcount underflow")
	case n == 0:
		delete(m, k)
	default:
		m[k] = n
	}
}

// bumpPair adjusts an adjacency refcount and folds its 0↔1 transitions
// into the derived distinct-neighbor count of x.
func bumpPair(pairs map[pairKey]int, counts map[uint32]int, x, y uint32, d int) {
	k := pairKey{x, y}
	old := pairs[k]
	n := old + d
	switch {
	case n < 0:
		panic("core: corpus index refcount underflow")
	case n == 0:
		delete(pairs, k)
	default:
		pairs[k] = n
	}
	if old == 0 && n > 0 {
		counts[x]++
	} else if old > 0 && n == 0 {
		if counts[x] == 1 {
			delete(counts, x)
		} else {
			counts[x]--
		}
	}
}

// AddPath folds one sanitized path into (d=+1) or out of (d=-1) the
// ranked layer. The batch pipeline adds each distinct hop sequence
// once; the streaming engine refcounts RIB entries per (collector,
// prefix, hops) and calls AddPath only on an entry's 0↔1 transitions.
//
// Its two halves write disjoint maps, so the batch fold runs each over
// the whole corpus as its own pool task.
func (ix *CorpusIndex) AddPath(asns []uint32, d int) {
	ix.addDegrees(asns, d)
	ix.addTransit(asns, d)
}

// addDegrees is the half of AddPath that maintains per-AS occurrences
// and the distinct-neighbor degree: occur, nbrPair and deg.
func (ix *CorpusIndex) addDegrees(asns []uint32, d int) {
	for _, a := range asns {
		bump(ix.occur, a, d)
	}
	for i := 0; i+1 < len(asns); i++ {
		a, b := asns[i], asns[i+1]
		bumpPair(ix.nbrPair, ix.deg, a, b, d)
		bumpPair(ix.nbrPair, ix.deg, b, a, d)
	}
}

// addTransit is the other half of AddPath: the transit degree
// (transitPair, transitDeg) and the ranked layer's adjacency
// (preLinks, preTriples).
func (ix *CorpusIndex) addTransit(asns []uint32, d int) {
	for i := 1; i+1 < len(asns); i++ {
		mid := asns[i]
		bumpPair(ix.transitPair, ix.transitDeg, mid, asns[i-1], d)
		bumpPair(ix.transitPair, ix.transitDeg, mid, asns[i+1], d)
	}
	addAdjacency(ix.preLinks, ix.preTriples, asns, d)
}

// addAdjacency bumps every link and hop context of asns: the one
// definition of both layers' adjacency aggregates (preLinks/preTriples
// and links/triples). Over the same sequences the two layers therefore
// hold the same keys and counts, less the kept layer's poisoned
// sequences — the identity the batch fold builds the kept layer from.
func addAdjacency(links map[paths.Link]int, triples map[Triple]int, asns []uint32, d int) {
	for i := 0; i+1 < len(asns); i++ {
		bump(links, paths.NewLink(asns[i], asns[i+1]), d)
		var prev uint32
		if i > 0 {
			prev = asns[i-1]
		}
		bump(triples, Triple{Prev: prev, Mid: asns[i], Next: asns[i+1]}, d)
	}
}

// AddKept folds one non-poisoned path into (d=+1) or out of
// (d=-1) the kept layer. Poisoned-ness is a per-path function of the
// clique (see Poisoned); when the clique changes, the engine resets the
// layer and re-adds every surviving path.
//
// Like AddPath it is two halves over disjoint maps: the adjacency
// (links, triples) and the per-path aggregates (addKeptPaths).
func (ix *CorpusIndex) AddKept(asns []uint32, d int) {
	addAdjacency(ix.links, ix.triples, asns, d)
	ix.addKeptPaths(asns, d)
}

// addKeptPaths is the per-path half of AddKept: pathCount, origins,
// vpOrigins and vpFirstHops.
func (ix *CorpusIndex) addKeptPaths(asns []uint32, d int) {
	if len(asns) == 0 {
		return
	}
	ix.pathCount += d
	bump(ix.origins, asns[len(asns)-1], d)
	if len(asns) >= 2 {
		bump(ix.vpOrigins, VPPair{VP: asns[0], Other: asns[len(asns)-1]}, d)
		bump(ix.vpFirstHops, VPPair{VP: asns[0], Other: asns[1]}, d)
	}
}

// ResetKept clears the kept layer. The streaming engine calls this when
// the clique changes (the global dirty region): every path's poisoned
// flag is re-evaluated and the survivors re-added.
func (ix *CorpusIndex) ResetKept() {
	ix.pathCount = 0
	ix.links = make(map[paths.Link]int)
	ix.triples = make(map[Triple]int)
	ix.origins = make(map[uint32]int)
	ix.vpOrigins = make(map[VPPair]int)
	ix.vpFirstHops = make(map[VPPair]int)
}

// PathCount returns the number of paths folded into the kept layer.
func (ix *CorpusIndex) PathCount() int { return ix.pathCount }

// Links returns the kept layer's link set, keyed like Dataset.Links.
// The map is shared with the index — callers must not mutate it, and
// must not retain it across further Add calls.
func (ix *CorpusIndex) Links() map[paths.Link]int { return ix.links }

// TransitDegrees returns a copy of the transit-degree metric, equal to
// Dataset.TransitDegrees over the ranked corpus.
func (ix *CorpusIndex) TransitDegrees() map[uint32]int {
	out := make(map[uint32]int, len(ix.transitDeg))
	for a, n := range ix.transitDeg {
		out[a] = n
	}
	return out
}

// Degrees returns a copy of the node-degree metric, equal to
// Dataset.Degrees over the ranked corpus.
func (ix *CorpusIndex) Degrees() map[uint32]int {
	out := make(map[uint32]int, len(ix.deg))
	for a, n := range ix.deg {
		out[a] = n
	}
	return out
}

// Rank orders every observed AS by decreasing transit degree, then
// decreasing node degree, then ascending ASN — step 2 over the ranked
// layer. The ASN tiebreak makes the order total.
func (ix *CorpusIndex) Rank() []uint32 {
	keys := make([]rankKey, 0, len(ix.occur))
	for asn := range ix.occur {
		keys = append(keys, rankKey{asn: asn, transit: ix.transitDeg[asn], degree: ix.deg[asn]})
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.transit != b.transit {
			return cmp.Compare(b.transit, a.transit)
		}
		if a.degree != b.degree {
			return cmp.Compare(b.degree, a.degree)
		}
		return cmp.Compare(a.asn, b.asn)
	})
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = k.asn
	}
	return out
}

// rankKey is one AS with its step-2 sort keys, read from the index's
// maps once so the comparator does no lookups.
type rankKey struct {
	asn             uint32
	transit, degree int
}

// hopSet interns distinct hop sequences in first-seen order. A sequence
// is looked up by its hash and then compared hop by hop: two sequences
// are one entry only when every hop is equal, never on a hash match
// alone.
type hopSet struct {
	seqs [][]uint32       // distinct sequences, first-seen order
	head map[uint64]int32 // hash -> newest sequence with that hash
	next []int32          // next[i]: older sequence with seqs[i]'s hash, or -1
}

// internRows interns the hops of every row of ds and returns, per row,
// the index of its sequence in hs.seqs. The sequences alias the rows'
// hop slices.
func (hs *hopSet) internRows(ds *paths.Dataset) []int32 {
	hs.head = make(map[uint64]int32, len(ds.Paths))
	rowSeq := make([]int32, len(ds.Paths))
	for r, p := range ds.Paths {
		rowSeq[r] = hs.intern(p.ASNs, hashHops(p.ASNs))
	}
	return rowSeq
}

// intern returns the index of asns in hs.seqs, adding it if new. h must
// be hashHops(asns); it only narrows the candidates to compare.
func (hs *hopSet) intern(asns []uint32, h uint64) int32 {
	head, ok := hs.head[h]
	if !ok {
		head = -1
	}
	for i := head; i >= 0; i = hs.next[i] {
		if slices.Equal(hs.seqs[i], asns) {
			return i
		}
	}
	i := int32(len(hs.seqs))
	hs.seqs = append(hs.seqs, asns)
	hs.next = append(hs.next, head)
	hs.head[h] = i
	return i
}

// hashHops is FNV-1a over a hop sequence, one ASN per round.
func hashHops(asns []uint32) uint64 {
	h := uint64(14695981039346656037)
	for _, a := range asns {
		h = (h ^ uint64(a)) * 1099511628211
	}
	return h
}
