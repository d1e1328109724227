package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"github.com/asrank-go/asrank/internal/asindex"
	"github.com/asrank-go/asrank/internal/paths"
)

// The references below are the global sorts inference used before it
// bucketed and keyed its orderings; the tests hold the new code to
// their exact output.

// refSortedTriples is the former global (Mid, Next, Prev) sort of a
// triple map's keys.
func refSortedTriples(m map[Triple]int) []Triple {
	out := make([]Triple, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Mid != out[j].Mid {
			return out[i].Mid < out[j].Mid
		}
		if out[i].Next != out[j].Next {
			return out[i].Next < out[j].Next
		}
		return out[i].Prev < out[j].Prev
	})
	return out
}

// refRank is the former CorpusIndex.Rank: sort.Slice with map lookups
// in the comparator.
func refRank(ix *CorpusIndex) []uint32 {
	out := make([]uint32, 0, len(ix.occur))
	for asn := range ix.occur {
		out = append(out, asn)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if ix.transitDeg[a] != ix.transitDeg[b] {
			return ix.transitDeg[a] > ix.transitDeg[b]
		}
		if ix.deg[a] != ix.deg[b] {
			return ix.deg[a] > ix.deg[b]
		}
		return a < b
	})
	return out
}

// refPredecessorPairs is the former full clique-extension evidence:
// every AS's distinct (prev, mid) hop pairs, for all ASes.
func refPredecessorPairs(ix *CorpusIndex) map[uint32][][2]uint32 {
	out := make(map[uint32][][2]uint32)
	for _, t := range refSortedTriples(ix.preTriples) {
		if t.Prev == 0 {
			continue
		}
		out[t.Next] = append(out[t.Next], [2]uint32{t.Prev, t.Mid})
	}
	return out
}

// refCrossed is the former membership test over gathered pairs.
func refCrossed(pairs [][2]uint32, member map[uint32]bool) bool {
	for _, pr := range pairs {
		if member[pr[0]] && member[pr[1]] {
			return true
		}
	}
	return false
}

// randomPaths draws n paths of 1–6 hops over ASNs 1..span, so ASes
// share neighbors, tie on degree, and appear as first hops (Prev==0
// contexts) and as middle hops alike.
func randomPaths(rng *rand.Rand, n int, span uint32) [][]uint32 {
	out := make([][]uint32, n)
	for i := range out {
		p := make([]uint32, 1+rng.Intn(6))
		for j := range p {
			p[j] = 1 + uint32(rng.Intn(int(span)))
		}
		out[i] = p
	}
	return out
}

// TestTripletBucketsMatchGlobalSort checks step 5's per-AS buckets
// against the former global (Mid, Next, Prev) sort grouped by Mid, on
// random kept layers with VP contexts and with middle ASes left out of
// the interned set.
func TestTripletBucketsMatchGlobalSort(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewCorpusIndex()
		for _, p := range randomPaths(rng, 400, 60) {
			ix.AddKept(p, 1)
		}
		var interned []uint32
		for a := uint32(1); a <= 60; a++ {
			if rng.Intn(5) > 0 {
				interned = append(interned, a)
			}
		}
		idx := asindex.New(interned)

		want := make([][]uint64, idx.Len())
		vpContexts := 0
		for _, tr := range refSortedTriples(ix.triples) {
			zi, ok := idx.Pos(tr.Mid)
			if !ok {
				continue
			}
			if tr.Prev == 0 {
				vpContexts++
			}
			want[zi] = append(want[zi], uint64(tr.Next)<<32|uint64(tr.Prev))
		}
		if vpContexts == 0 {
			t.Fatalf("seed %d: no Prev==0 contexts; the test would not cover VPs", seed)
		}
		if got := tripletBuckets(ix.triples, idx); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: buckets differ from the global (Mid, Next, Prev) sort", seed)
		}
	}
}

// TestRankMatchesReference checks the keyed step-2 sort against the
// former sort.Slice on corpora where most ASes tie on transit and node
// degree, so the ASN tiebreak decides most of the order.
func TestRankMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ix := NewCorpusIndex()
		for _, p := range randomPaths(rng, 150, 400) {
			ix.AddPath(p, 1)
		}
		got, want := ix.Rank(), refRank(ix)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Rank %v, reference %v", seed, got, want)
		}
		ties := 0
		for i := 1; i < len(got); i++ {
			a, b := got[i-1], got[i]
			if ix.transitDeg[a] == ix.transitDeg[b] && ix.deg[a] == ix.deg[b] {
				ties++
			}
		}
		if ties < len(got)/2 {
			t.Fatalf("seed %d: only %d of %d neighbors tie; the ASN tiebreak is barely exercised", seed, ties, len(got))
		}
	}
}

// refClique runs step 3 with the former evidence: the Bron–Kerbosch
// seed clique (inferClique with an extension limit of 1 visits only
// the top AS, already a member), then the greedy extension reading the
// full predecessor-pair map. It counts the joins the all-but-one
// tolerance admitted and the candidates the crossing evidence refused.
func refClique(ix *CorpusIndex, rank []uint32, opts Options) (clique []uint32, tolerated, crossed int) {
	seedOpts := opts
	seedOpts.CliqueExtendLimit = 1
	best := inferClique(ix, rank, seedOpts)
	pred2 := refPredecessorPairs(ix)
	member := make(map[uint32]bool)
	for _, m := range best {
		member[m] = true
	}
	limit := min(opts.CliqueExtendLimit, len(rank))
	for _, cand := range rank[:limit] {
		if member[cand] {
			continue
		}
		adjacent := 0
		for _, m := range best {
			if _, ok := ix.preLinks[paths.NewLink(cand, m)]; ok {
				adjacent++
			}
		}
		if adjacent == len(best) {
			best = append(best, cand)
			member[cand] = true
			continue
		}
		if len(best) < 5 || adjacent < len(best)-1 {
			continue
		}
		if refCrossed(pred2[cand], member) {
			crossed++
			continue
		}
		tolerated++
		best = append(best, cand)
		member[cand] = true
	}
	sort.Slice(best, func(i, j int) bool { return best[i] < best[j] })
	return best, tolerated, crossed
}

// toleranceCorpus has a fully meshed top five {1..5} and two
// candidates adjacent to all members but 5: AS 6 is seen behind the
// crossing 1→2, AS 7 never is. 6 ranks first, so it is refused on the
// crossing evidence alone; 7 then joins on the all-but-one tolerance.
func toleranceCorpus() [][]uint32 {
	var out [][]uint32
	for i := uint32(1); i <= 5; i++ {
		for j := uint32(1); j <= 5; j++ {
			if i != j {
				out = append(out, []uint32{100 + i, i, j, 200 + j})
			}
		}
	}
	for m := uint32(1); m <= 4; m++ {
		out = append(out, []uint32{m, 6, 60}, []uint32{m, 7, 70})
	}
	return append(out, []uint32{1, 2, 6, 60})
}

// TestCliqueEvidenceMatchesPredecessorPairs checks that probing the hop
// contexts for member pairs extends the clique exactly as the full
// predecessor-pair map did, on a corpus built to take the tolerated
// join and the crossed refusal, and on simulated collections.
func TestCliqueEvidenceMatchesPredecessorPairs(t *testing.T) {
	type corpus struct {
		name  string
		paths [][]uint32
		opts  Options
	}
	corpora := []corpus{{"tolerance", toleranceCorpus(), Options{CliqueSeedSize: 5}}}
	for _, seed := range []int64{1, 2, 3, 4} {
		var ps [][]uint32
		for _, p := range seedCorpus(t, seed, 600, 15).Paths {
			ps = append(ps, p.ASNs)
		}
		corpora = append(corpora, corpus{"seed", ps, Options{}})
	}

	tolerated, crossed := 0, 0
	for _, c := range corpora {
		ix := NewCorpusIndex()
		for _, p := range c.paths {
			ix.AddPath(p, 1)
		}
		rank := ix.Rank()
		opts := c.opts.withDefaults()
		want, tol, cr := refClique(ix, rank, opts)
		tolerated += tol
		crossed += cr
		if got := CliqueFromIndex(ix, rank, c.opts); !reflect.DeepEqual(got, want) {
			t.Errorf("%s corpus: clique %v, reference %v", c.name, got, want)
		}
		if c.name == "tolerance" && (!reflect.DeepEqual(want, []uint32{1, 2, 3, 4, 5, 7}) || tol != 1 || cr != 1) {
			t.Errorf("tolerance corpus: reference clique %v after %d tolerated joins and %d crossed refusals, want [1 2 3 4 5 7] after 1 and 1", want, tol, cr)
		}
	}
	if tolerated == 0 || crossed == 0 {
		t.Fatalf("tolerated joins %d, crossed refusals %d: both branches must be exercised", tolerated, crossed)
	}
}
