// Package cone computes customer cones — the set of ASes an AS can
// reach by only traversing customer links — under the three definitions
// the paper compares:
//
//   - Recursive: the transitive closure of inferred p2c links. The
//     loosest definition; it overcounts because a multihomed customer
//     need not actually route through every provider.
//   - BGP-observed: only ASes seen in actual BGP paths descending from
//     the AS along observed customer links.
//   - Provider/peer observed (PP): only ASes seen in paths that *enter*
//     the AS from one of its providers or peers and then descend — the
//     strictest evidence, and the definition CAIDA's AS Rank uses.
//
// For every AS: PP cone ⊆ BGP-observed cone ⊆ recursive cone, and the
// AS is always in its own cone.
//
// The engine interns ASNs into a dense index (internal/asindex) and
// accumulates each cone as a bitset, fanning the closure and the
// per-path chain crediting out over a bounded worker pool with a
// deterministic shard merge, so results are identical to a sequential
// run regardless of worker count.
package cone

import (
	"cmp"
	"context"
	"net/netip"
	"slices"
	"sync"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/pool"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// Sets maps each AS to its cone membership set (which includes the AS
// itself).
type Sets map[uint32]map[uint32]bool

// Sizes returns per-AS cone sizes in number of ASes.
func (s Sets) Sizes() map[uint32]int {
	out := make(map[uint32]int, len(s))
	for asn, cone := range s {
		out[asn] = len(cone)
	}
	return out
}

// PrefixWeighted returns per-AS cone sizes weighted by the number of
// prefixes each cone member originates (the paper's "cone by prefixes").
func (s Sets) PrefixWeighted(prefixCount map[uint32]int) map[uint32]int {
	out := make(map[uint32]int, len(s))
	for asn, cone := range s {
		total := 0
		for member := range cone {
			total += prefixCount[member]
		}
		out[asn] = total
	}
	return out
}

// AddressWeighted returns per-AS cone sizes weighted by the number of
// IPv4 addresses each cone member originates (the paper's "cone by
// addresses"), given per-AS address counts — see AddressCounts.
func (s Sets) AddressWeighted(addrCount map[uint32]int64) map[uint32]int64 {
	out := make(map[uint32]int64, len(s))
	for asn, cone := range s {
		var total int64
		for member := range cone {
			total += addrCount[member]
		}
		out[asn] = total
	}
	return out
}

// v4Prefix normalizes a corpus prefix to plain IPv4, accepting the
// IPv4-mapped-in-IPv6 form (::ffff:a.b.c.d/96+n) that MRT feeds can
// legitimately carry. It reports false for everything else.
func v4Prefix(p netip.Prefix) (netip.Prefix, bool) {
	if !p.IsValid() {
		return netip.Prefix{}, false
	}
	addr, bits := p.Addr(), p.Bits()
	if addr.Is4In6() {
		if bits < 96 {
			return netip.Prefix{}, false
		}
		addr, bits = addr.Unmap(), bits-96
	}
	if !addr.Is4() {
		return netip.Prefix{}, false
	}
	return netip.PrefixFrom(addr, bits), true
}

// AddressCounts sums the address span of each origin's prefixes from a
// path corpus: a /24 contributes 256 addresses. Overlapping prefixes
// from the same origin are counted once per distinct prefix, which
// matches how the paper counts routed space. IPv4-mapped IPv6 prefixes
// are normalized to their embedded IPv4 prefix first.
func AddressCounts(ds *paths.Dataset) map[uint32]int64 {
	seen := make(map[uint32]map[string]bool)
	out := make(map[uint32]int64)
	for _, p := range ds.Paths {
		prefix, ok := v4Prefix(p.Prefix)
		if !ok {
			continue
		}
		origin := p.Origin()
		m, ok := seen[origin]
		if !ok {
			m = make(map[string]bool)
			seen[origin] = m
		}
		key := prefix.String()
		if m[key] {
			continue
		}
		m[key] = true
		out[origin] += int64(1) << (32 - prefix.Bits())
	}
	return out
}

// PrefixCounts counts each origin's distinct prefixes in a corpus.
func PrefixCounts(ds *paths.Dataset) map[uint32]int {
	type originPrefix struct {
		origin uint32
		prefix netip.Prefix
	}
	seen := make(map[originPrefix]bool)
	out := make(map[uint32]int)
	for _, p := range ds.Paths {
		if !p.Prefix.IsValid() {
			continue
		}
		k := originPrefix{p.Origin(), p.Prefix}
		if seen[k] {
			continue
		}
		seen[k] = true
		out[k.origin]++
	}
	return out
}

// Relations indexes an inferred (or ground-truth) relationship set for
// cone computation: ASNs are interned into a dense index and the p2c
// digraph is stored as interned adjacency lists.
//
// Relations is immutable after construction (WithWorkers only tunes how
// work is sharded, never what is computed), so every cone product is
// memoized: repeated calls to Recursive, BGPObserved,
// ProviderPeerObserved, or their *Bits variants return the same shared
// value. Callers must treat returned Sets and BitSets as read-only.
type Relations struct {
	rel     map[paths.Link]topology.Relationship
	idx     *asindex.Index
	custIdx [][]int32       // provider position → customer positions, ascending
	workers int             // worker-pool size; <= 0 selects GOMAXPROCS
	ctx     context.Context // trace-span parent for builds; nil = background

	mu      sync.Mutex
	recBits *BitSets
	recSets Sets
	obsBits map[obsKey]*BitSets
	obsSets map[obsKey]Sets
}

// obsKey identifies one observed-cone product: the path corpus it was
// computed over and which crediting rule (BGP vs provider/peer) applied.
type obsKey struct {
	ds        *paths.Dataset
	needEntry bool
}

// NewRelations indexes rels, whose orientation is canonical (relative to
// Link.A, as produced by core.Infer and topology.Links). The map is
// retained, not copied — callers must not mutate it afterwards.
func NewRelations(rels map[paths.Link]topology.Relationship) *Relations {
	asns := make([]uint32, 0, 2*len(rels))
	for l := range rels {
		//lint:ignore nodeterminismleak asindex.New sorts and dedups its input, so collection order cannot leak
		asns = append(asns, l.A, l.B)
	}
	r := &Relations{
		rel: rels,
		idx: asindex.New(asns),
	}
	r.custIdx = make([][]int32, r.idx.Len())
	for l, rel := range rels {
		var provider, customer uint32
		switch rel {
		case topology.P2C:
			provider, customer = l.A, l.B
		case topology.C2P:
			provider, customer = l.B, l.A
		default:
			continue
		}
		pi, _ := r.idx.Pos(provider)
		ci, _ := r.idx.Pos(customer)
		//lint:ignore nodeterminismleak every custIdx row is sorted immediately below
		r.custIdx[pi] = append(r.custIdx[pi], ci)
	}
	for _, cs := range r.custIdx {
		slices.Sort(cs)
	}
	return r
}

// WithWorkers sets the worker-pool size used by the cone engines and
// returns r for chaining. Values <= 0 (the default) select
// runtime.GOMAXPROCS. Worker count never changes results, only how the
// work is sharded.
func (r *Relations) WithWorkers(n int) *Relations {
	r.workers = n
	return r
}

// WithContext sets the context cone builds start their trace spans
// from and returns r for chaining (like WithWorkers, this tunes
// observability, never what is computed). When the context carries a
// trace span, each uncached build records a "cone.build" span (engine
// attribute: recursive/bgp/pp) with closure/credit/merge children and
// per-shard pool.task spans.
func (r *Relations) WithContext(ctx context.Context) *Relations {
	r.ctx = ctx
	return r
}

// buildCtx returns the span-parent context for build work.
func (r *Relations) buildCtx() context.Context {
	if r.ctx != nil {
		return r.ctx
	}
	return context.Background()
}

// Rel returns the relationship of x relative to y (P2C: x provides to y).
func (r *Relations) Rel(x, y uint32) topology.Relationship {
	rel, ok := r.rel[paths.NewLink(x, y)]
	if !ok {
		return topology.None
	}
	if paths.NewLink(x, y).A == x {
		return rel
	}
	return rel.Invert()
}

// ASes returns every AS appearing in the relationship set, ascending.
// The returned slice is shared; callers must not modify it.
func (r *Relations) ASes() []uint32 { return r.idx.ASNs() }

// Index returns the dense ASN index the engine interned.
func (r *Relations) Index() *asindex.Index { return r.idx }

// Recursive computes the transitive-closure customer cone of every AS.
// The result is memoized; treat it as read-only.
func (r *Relations) Recursive() Sets {
	bits := r.RecursiveBits()
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recSets == nil {
		r.recSets = bits.Sets()
	}
	return r.recSets
}

// RecursiveBits is Recursive in the compact bitset representation,
// memoized like Recursive.
func (r *Relations) RecursiveBits() *BitSets {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.recBits == nil {
		coneMemo.With("recursive", "miss").Inc()
		ctx, stage := trace.StartStage(r.buildCtx(), "cone.build", coneBuildDuration.With("recursive"))
		stage.Span().SetAttr("engine", "recursive")
		r.recBits = r.computeRecursiveBits(ctx)
		stage.End()
	} else {
		coneMemo.With("recursive", "hit").Inc()
	}
	return r.recBits
}

// computeRecursiveBits does the closure. On the (usual) acyclic p2c
// digraph each cone is the word-wise OR of its customers' cones in
// reverse topological order; cyclic inputs — possible when indexing an
// arbitrary relationship file — fall back to an independent DFS per AS,
// sharded across the worker pool.
func (r *Relations) computeRecursiveBits(ctx context.Context) *BitSets {
	n := r.idx.Len()
	cones := asindex.NewBitsets(n, n)
	closureCtx, closureSpan := trace.StartSpan(ctx, "cone.closure")
	defer closureSpan.End()
	if order, acyclic := r.reverseTopo(); acyclic {
		closureSpan.SetAttr("order", "kahn")
		for _, x := range order {
			b := cones[x]
			b.Set(x)
			for _, c := range r.custIdx[x] {
				b.Or(cones[c])
			}
		}
	} else {
		closureSpan.SetAttr("order", "dfs")
		pool.ChunksCtx(closureCtx, r.workers, n, 64, func(_ context.Context, lo, hi int) {
			var stack []int32
			for i := lo; i < hi; i++ {
				b := cones[i]
				b.Set(int32(i))
				stack = append(stack[:0], int32(i))
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					for _, c := range r.custIdx[x] {
						if b.TrySet(c) {
							stack = append(stack, c)
						}
					}
				}
			}
		})
	}
	return &BitSets{idx: r.idx, cones: cones, workers: r.workers}
}

// reverseTopo returns the positions of the p2c digraph ordered so every
// customer precedes its providers, and whether the graph is acyclic
// (positions on a cycle never drain in Kahn's algorithm).
func (r *Relations) reverseTopo() ([]int32, bool) {
	n := r.idx.Len()
	indeg := make([]int32, n) // providers pointing at each position
	for _, cs := range r.custIdx {
		for _, c := range cs {
			indeg[c]++
		}
	}
	order := make([]int32, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			order = append(order, int32(i))
		}
	}
	for head := 0; head < len(order); head++ {
		for _, c := range r.custIdx[order[head]] {
			if indeg[c]--; indeg[c] == 0 {
				order = append(order, c)
			}
		}
	}
	if len(order) < n {
		return nil, false
	}
	// order currently runs providers → customers; reverse it.
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	return order, true
}

// RecursiveOne computes a single AS's recursive cone.
func (r *Relations) RecursiveOne(asn uint32) map[uint32]bool {
	start, ok := r.idx.Pos(asn)
	if !ok {
		return map[uint32]bool{asn: true}
	}
	n := r.idx.Len()
	b := asindex.NewBitset(n)
	b.Set(start)
	stack := []int32{start}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range r.custIdx[x] {
			if b.TrySet(c) {
				stack = append(stack, c)
			}
		}
	}
	cone := make(map[uint32]bool, b.Count())
	b.ForEach(func(i int32) { cone[r.idx.ASN(i)] = true })
	return cone
}

// BGPObserved computes cones from observed paths: starting at each
// position where the next hop is one of the AS's customers, every AS on
// the maximal descending (p2c) chain is in the cone. The result is
// memoized per dataset; treat it as read-only.
func (r *Relations) BGPObserved(ds *paths.Dataset) Sets {
	return r.observedSetsCached(ds, false)
}

// BGPObservedBits is BGPObserved in the compact bitset representation,
// memoized like BGPObserved.
func (r *Relations) BGPObservedBits(ds *paths.Dataset) *BitSets {
	return r.observedBitsCached(ds, false)
}

// ProviderPeerObserved computes the PP cone: like BGPObserved, but a
// position only contributes when the path entered the AS from one of
// its providers or peers — third parties demonstrably routing through
// the AS to reach the cone member. The result is memoized per dataset;
// treat it as read-only.
func (r *Relations) ProviderPeerObserved(ds *paths.Dataset) Sets {
	return r.observedSetsCached(ds, true)
}

// ProviderPeerObservedBits is ProviderPeerObserved in the compact
// bitset representation, memoized like ProviderPeerObserved.
func (r *Relations) ProviderPeerObservedBits(ds *paths.Dataset) *BitSets {
	return r.observedBitsCached(ds, true)
}

// observedBitsCached memoizes observedBits per (dataset, rule) pair.
// Datasets are immutable once built (Sanitize returns a fresh one), so
// pointer identity is a sound cache key.
func (r *Relations) observedBitsCached(ds *paths.Dataset, needEntry bool) *BitSets {
	k := obsKey{ds, needEntry}
	engine := engineName(needEntry)
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.obsBits[k]
	if !ok {
		coneMemo.With(engine, "miss").Inc()
		ctx, stage := trace.StartStage(r.buildCtx(), "cone.build", coneBuildDuration.With(engine))
		stage.Span().SetAttr("engine", engine)
		stage.Span().SetAttrInt("paths", int64(len(ds.Paths)))
		b = r.observedBits(ctx, ds, needEntry)
		stage.End()
		if r.obsBits == nil {
			r.obsBits = make(map[obsKey]*BitSets)
		}
		r.obsBits[k] = b
	} else {
		coneMemo.With(engine, "hit").Inc()
	}
	return b
}

// observedSetsCached memoizes the materialized map form alongside the
// bitset form.
func (r *Relations) observedSetsCached(ds *paths.Dataset, needEntry bool) Sets {
	bits := r.observedBitsCached(ds, needEntry)
	k := obsKey{ds, needEntry}
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.obsSets[k]
	if !ok {
		s = bits.Sets()
		if r.obsSets == nil {
			r.obsSets = make(map[obsKey]Sets)
		}
		r.obsSets[k] = s
	}
	return s
}

// observedBits shards the path corpus across the worker pool, credits
// descending chains into per-shard cone accumulators, and merges the
// shards in fixed shard order so the result is independent of worker
// scheduling.
func (r *Relations) observedBits(ctx context.Context, ds *paths.Dataset, needEntry bool) *BitSets {
	n := r.idx.Len()
	shards := make([][]asindex.Bitset, pool.NumShards(r.workers, len(ds.Paths)))
	creditCtx, creditSpan := trace.StartSpan(ctx, "cone.credit")
	pool.RangeCtx(creditCtx, r.workers, len(ds.Paths), func(_ context.Context, shard, lo, hi int) {
		local := make([]asindex.Bitset, n)
		var scratch chainScratch
		for _, p := range ds.Paths[lo:hi] {
			r.addChains(local, p.ASNs, needEntry, &scratch)
		}
		shards[shard] = local
	})
	creditSpan.End()
	cones := asindex.NewBitsets(n, n)
	mergeCtx, mergeSpan := trace.StartSpan(ctx, "cone.merge")
	defer mergeSpan.End()
	pool.ChunksCtx(mergeCtx, r.workers, n, 64, func(_ context.Context, lo, hi int) {
		for i := lo; i < hi; i++ {
			b := cones[i]
			for _, local := range shards {
				if local[i] != nil {
					b.Or(local[i])
				}
			}
			b.Set(int32(i)) // an AS is always in its own cone
		}
	})
	return &BitSets{idx: r.idx, cones: cones, workers: r.workers}
}

// chainScratch holds per-worker buffers addChains reuses across paths.
type chainScratch struct {
	pos       []int32
	hopRel    []topology.Relationship
	descendTo []int
}

// addChains walks one path and credits descending chains into cones.
// With needEntry, a chain from position i is credited only when hop
// i-1 → i comes from a provider or peer of path[i].
func (r *Relations) addChains(cones []asindex.Bitset, asns []uint32, needEntry bool, sc *chainScratch) {
	n := len(asns)
	if n < 2 {
		return
	}
	if cap(sc.pos) < n {
		sc.pos = make([]int32, n)
		sc.hopRel = make([]topology.Relationship, n)
		sc.descendTo = make([]int, n)
	}
	pos, hopRel, descendTo := sc.pos[:n], sc.hopRel[:n-1], sc.descendTo[:n]
	for i, a := range asns {
		if p, ok := r.idx.Pos(a); ok {
			pos[i] = p
		} else {
			pos[i] = -1
		}
	}
	for i := 0; i+1 < n; i++ {
		hopRel[i] = r.Rel(asns[i], asns[i+1])
	}
	// descendTo[i] is the furthest index reachable from i by consecutive
	// p2c hops; computed right to left.
	descendTo[n-1] = n - 1
	for i := n - 2; i >= 0; i-- {
		if hopRel[i] == topology.P2C {
			descendTo[i] = descendTo[i+1]
		} else {
			descendTo[i] = i
		}
	}
	for i := 0; i < n-1; i++ {
		if descendTo[i] == i {
			continue // no customer hop here
		}
		if needEntry {
			if i == 0 {
				continue // the VP has no entering hop
			}
			switch hopRel[i-1] {
			case topology.P2C, topology.P2P:
				// provider or peer of asns[i]: credited
			default:
				continue
			}
		}
		// A p2c hop out of position i implies the link is in the
		// relationship set, so every chain position is interned.
		cone := cones[pos[i]]
		if cone == nil {
			cone = asindex.NewBitset(len(r.custIdx))
			cone.Set(pos[i])
			cones[pos[i]] = cone
		}
		for j := i + 1; j <= descendTo[i]; j++ {
			cone.Set(pos[j])
		}
	}
}

// Rank orders ASes by decreasing cone size, tie-broken by decreasing
// transit degree (may be nil) and then ascending ASN — the AS Rank
// ordering. The ASN tiebreak makes the order total.
func Rank(sizes map[uint32]int, transitDegree map[uint32]int) []uint32 {
	keys := make([]rankKey, 0, len(sizes))
	for asn, size := range sizes {
		keys = append(keys, rankKey{asn: asn, size: size, transit: transitDegree[asn]})
	}
	slices.SortFunc(keys, func(a, b rankKey) int {
		if a.size != b.size {
			return cmp.Compare(b.size, a.size)
		}
		if a.transit != b.transit {
			return cmp.Compare(b.transit, a.transit)
		}
		return cmp.Compare(a.asn, b.asn)
	})
	out := make([]uint32, len(keys))
	for i, k := range keys {
		out[i] = k.asn
	}
	return out
}

// rankKey is one AS with its Rank sort keys, read from the maps once so
// the comparator does no lookups.
type rankKey struct {
	asn           uint32
	size, transit int
}
