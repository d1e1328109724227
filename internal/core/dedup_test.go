package core

import (
	"context"
	"fmt"
	"net/netip"
	"reflect"
	"testing"

	"github.com/asrank-go/asrank/internal/bgpsim"
	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
)

// seedCorpus is the sanitized simulated collection of a fixed seed.
func seedCorpus(tb testing.TB, seed int64, ases, vps int) *paths.Dataset {
	tb.Helper()
	p := topology.DefaultParams(seed)
	p.ASes = ases
	topo := topology.Generate(p)
	opts := bgpsim.DefaultOptions(seed)
	opts.NumVPs = vps
	sim, err := bgpsim.Run(topo, opts)
	if err != nil {
		tb.Fatal(err)
	}
	clean, _ := paths.Sanitize(sim.Dataset, paths.SanitizeOptions{})
	return clean
}

// TestRowMultiplicityInvariant re-adds every row of a corpus under two
// more collectors and prefixes. Steps 2–4 fold distinct hop sequences,
// so inference must not move; only the row-level outputs scale: the
// poisoned count triples and the kept corpus is the unpoisoned rows in
// input order.
func TestRowMultiplicityInvariant(t *testing.T) {
	base := seedCorpus(t, 101, 500, 15)
	multi := &paths.Dataset{Paths: append([]paths.Path(nil), base.Paths...)}
	for i, c := range []string{"dup-a", "dup-b"} {
		for r, p := range base.Paths {
			p.Collector = c
			p.Prefix = netip.PrefixFrom(netip.AddrFrom4([4]byte{100 + byte(i), byte(r >> 16), byte(r >> 8), byte(r)}), 32)
			multi.Add(p)
		}
	}

	want := Infer(base, Options{})
	got := Infer(multi, Options{})
	if want.PoisonedPaths == 0 {
		t.Fatal("seed corpus has no poisoned paths; the test would not exercise step 4")
	}
	for _, c := range []struct {
		name      string
		got, want any
	}{
		{"Rels", got.Rels, want.Rels},
		{"Steps", got.Steps, want.Steps},
		{"Rank", got.Rank, want.Rank},
		{"Clique", got.Clique, want.Clique},
		{"TransitDegree", got.TransitDegree, want.TransitDegree},
		{"Degree", got.Degree, want.Degree},
		{"Providerless", got.Providerless, want.Providerless},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s differs once rows repeat", c.name)
		}
	}
	if got.PoisonedPaths != 3*want.PoisonedPaths {
		t.Errorf("PoisonedPaths = %d, want 3×%d rows", got.PoisonedPaths, want.PoisonedPaths)
	}

	// Reference step 4: the per-row filter under the inferred clique.
	clique := make(map[uint32]bool)
	for _, c := range got.Clique {
		clique[c] = true
	}
	var kept []paths.Path
	for _, p := range multi.Paths {
		if !poisoned(p.ASNs, clique) {
			kept = append(kept, p)
		}
	}
	if !reflect.DeepEqual(got.Dataset.Paths, kept) {
		t.Errorf("kept corpus has %d rows, want the %d unpoisoned rows in input order", len(got.Dataset.Paths), len(kept))
	}
}

// TestHopSetComparesHops forces every sequence onto one hash: intern
// must still tell different sequences apart by their hops and find
// each one again.
func TestHopSetComparesHops(t *testing.T) {
	hs := hopSet{head: make(map[uint64]int32)}
	seqs := [][]uint32{{1, 2, 3}, {3, 2, 1}, {1, 2}, {1, 2, 3, 4}}
	for i, s := range seqs {
		if got := hs.intern(s, 42); got != int32(i) {
			t.Fatalf("intern(%v) = %d, want new entry %d", s, got, i)
		}
	}
	for i, s := range seqs {
		if got := hs.intern(append([]uint32(nil), s...), 42); got != int32(i) {
			t.Errorf("re-intern(%v) = %d, want %d", s, got, i)
		}
	}
	if len(hs.seqs) != len(seqs) {
		t.Errorf("%d entries, want %d", len(hs.seqs), len(seqs))
	}
}

// TestInternRows checks the row → sequence mapping: equal hops share
// an entry whatever their collector and prefix, entries are in
// first-seen order.
func TestInternRows(t *testing.T) {
	d := ds(
		[]uint32{1, 2, 3},
		[]uint32{4, 5},
		[]uint32{1, 2, 3},
		[]uint32{1, 2},
		[]uint32{4, 5},
	)
	var hs hopSet
	if got, want := hs.internRows(d), []int32{0, 1, 0, 2, 1}; !reflect.DeepEqual(got, want) {
		t.Errorf("row sequences %v, want %v", got, want)
	}
	if want := [][]uint32{{1, 2, 3}, {4, 5}, {1, 2}}; !reflect.DeepEqual(hs.seqs, want) {
		t.Errorf("sequences %v, want %v", hs.seqs, want)
	}
}

// TestFoldMatchesPerSequenceAdds holds the batch fold to the plain
// definition of both layers: AddPath once per distinct sequence, then
// AddKept once per unpoisoned one, in first-seen order. The fold runs
// the halves of each as separate pool tasks and clones the kept
// layer's adjacency from the ranked layer; at every worker count the
// index must be the same, raw refcounts included, and so must rank,
// clique, kept rows and dropped count.
func TestFoldMatchesPerSequenceAdds(t *testing.T) {
	base := seedCorpus(t, 101, 500, 15)
	var hs hopSet
	rowSeq := hs.internRows(base)
	ref := NewCorpusIndex()
	for _, seq := range hs.seqs {
		ref.AddPath(seq, 1)
	}
	opts := Options{}.withDefaults()
	rank := ref.Rank()
	clique := CliqueFromIndex(ref, rank, opts)
	cliqueSet := make(map[uint32]bool)
	for _, c := range clique {
		cliqueSet[c] = true
	}
	poisonedSeqs := 0
	for _, seq := range hs.seqs {
		if poisoned(seq, cliqueSet) {
			poisonedSeqs++
		} else {
			ref.AddKept(seq, 1)
		}
	}
	if poisonedSeqs == 0 {
		t.Fatal("seed corpus has no poisoned sequences; the kept-layer clone would not be exercised")
	}
	var kept []paths.Path
	dropped := 0
	for r, p := range base.Paths {
		if poisoned(hs.seqs[rowSeq[r]], cliqueSet) {
			dropped++
		} else {
			kept = append(kept, p)
		}
	}

	for _, workers := range []int{1, 2, 5} {
		opts.Workers = workers
		f := foldCorpus(context.Background(), base, opts)
		if !reflect.DeepEqual(f.ix, ref) {
			t.Errorf("workers=%d: fold index differs from per-sequence AddPath/AddKept", workers)
		}
		if !reflect.DeepEqual(f.rank, rank) || !reflect.DeepEqual(f.clique, clique) {
			t.Errorf("workers=%d: rank or clique differs", workers)
		}
		if !reflect.DeepEqual(f.kept.Paths, kept) || f.dropped != dropped {
			t.Errorf("workers=%d: kept %d rows, dropped %d; want %d, %d",
				workers, len(f.kept.Paths), f.dropped, len(kept), dropped)
		}
	}
}

// benchFold keeps the benchmarked fold's result live.
var benchFold corpusFold

// BenchmarkCorpusFold measures steps 2–4 alone — interning the hop
// sequences, ranking, clique, poisoned-path discard, both index layers
// — over the root package's micro-bench corpus (seed 1, 1000 ASes, 15
// VPs), on which its BenchmarkInfer runs steps 2–9. The sub-benchmarks
// run the fold's pool tasks on one worker and on two.
func BenchmarkCorpusFold(b *testing.B) {
	clean := seedCorpus(b, 1, 1000, 15)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := Options{Workers: workers}.withDefaults()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchFold = foldCorpus(context.Background(), clean, opts)
			}
		})
	}
}

// benchClique and benchResult keep the benchmarked results live.
var (
	benchClique []uint32
	benchResult *Result
)

// BenchmarkCliqueFromIndex measures step 3 alone — the Bron–Kerbosch
// seed clique and its greedy extension — over the ranked layer of
// BenchmarkCorpusFold's corpus, as each stream epoch reruns it.
func BenchmarkCliqueFromIndex(b *testing.B) {
	clean := seedCorpus(b, 1, 1000, 15)
	f := foldCorpus(context.Background(), clean, Options{}.withDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchClique = CliqueFromIndex(f.ix, f.rank, Options{})
	}
}

// BenchmarkInferIndexed measures the shared engine alone — intra-clique
// labeling, provider-less detection and steps 5–9 — over the kept layer
// of BenchmarkCorpusFold's corpus, as each stream epoch reruns it.
func BenchmarkInferIndexed(b *testing.B) {
	clean := seedCorpus(b, 1, 1000, 15)
	f := foldCorpus(context.Background(), clean, Options{}.withDefaults())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchResult = InferIndexed(context.Background(), f.ix, f.rank, f.clique, Options{})
	}
}
