// Package core implements the ASRank relationship-inference algorithm:
// given the AS paths observable from route collectors, it infers which
// AS links are customer-to-provider (c2p) and which are settlement-free
// peering (p2p).
//
// The pipeline follows the paper's structure:
//
//  1. sanitize paths (delegated to internal/paths)
//  2. rank ASes by transit degree
//  3. infer the top clique with Bron–Kerbosch
//  4. discard poisoned paths (clique–nonclique–clique sandwiches)
//  5. infer c2p top-down in rank order from path triplets
//  6. infer c2p from partial-feed vantage points
//  7. infer c2p for stubs adjacent to clique members
//  8. infer c2p for unlabeled links with a large transit-degree fold
//  9. label every remaining link p2p
//
// Each inferred link carries provenance (the step that labeled it) so
// accuracy can be reported per step.
package core

import (
	"context"
	"slices"

	"github.com/asrank-go/asrank/internal/paths"
	"github.com/asrank-go/asrank/internal/topology"
	"github.com/asrank-go/asrank/internal/trace"
)

// Step identifies which pipeline stage labeled a link.
type Step int8

// Pipeline steps, in execution order.
const (
	StepNone       Step = iota
	StepClique          // step 3: both endpoints in the inferred clique
	StepTopDown         // step 5: top-down triplet inference
	StepVP              // step 6: partial-feed vantage point first hops
	StepStubClique      // step 7: stub adjacent to a clique member
	StepFold            // step 8: transit-degree fold
	StepPeer            // step 9: default to p2p
)

// String names the step.
func (s Step) String() string {
	switch s {
	case StepNone:
		return "none"
	case StepClique:
		return "clique"
	case StepTopDown:
		return "top-down"
	case StepVP:
		return "vp"
	case StepStubClique:
		return "stub-clique"
	case StepFold:
		return "fold"
	case StepPeer:
		return "peer-default"
	}
	return "step?"
}

// Options tunes the inference pipeline. The zero value selects the
// defaults used in the experiments.
type Options struct {
	// CliqueSeedSize is how many top-ranked ASes feed the Bron–Kerbosch
	// maximum-clique search (default 10).
	CliqueSeedSize int
	// CliqueExtendLimit is how far down the ranking the greedy clique
	// extension looks (default 50).
	CliqueExtendLimit int
	// FoldRatio is the step-8 threshold: label a link c2p when one
	// side's transit degree is at least FoldRatio times the other's
	// (default 10).
	FoldRatio float64
	// PartialFeedOriginFrac is the step-6 threshold: a VP whose paths
	// reach fewer than this fraction of observed origins is treated as
	// exporting only customer routes (default 0.25).
	PartialFeedOriginFrac float64
	// TopDownPasses bounds the step-5 fixpoint iteration (default 3).
	TopDownPasses int
	// Clique, when non-nil, skips clique inference and uses the given
	// members (for ablations).
	Clique []uint32
	// DisableProviderless turns off the provider-less peer-of-clique
	// detection (ablation).
	DisableProviderless bool
	// DisableFold turns off the step-8 transit-degree fold (ablation).
	DisableFold bool
	// Sanitize, when set, runs path sanitization first (step 1); most
	// callers pass already-sanitized data.
	Sanitize bool
	// IXPASes is forwarded to sanitization when Sanitize is set.
	IXPASes map[uint32]bool
	// Workers bounds the worker pool of the parallel stages (currently
	// path sanitization); <= 0 selects runtime.GOMAXPROCS. Worker count
	// never changes results.
	Workers int
}

func (o Options) withDefaults() Options {
	if o.CliqueSeedSize <= 0 {
		o.CliqueSeedSize = 10
	}
	if o.CliqueExtendLimit <= 0 {
		o.CliqueExtendLimit = 50
	}
	if o.FoldRatio <= 0 {
		o.FoldRatio = 10
	}
	if o.PartialFeedOriginFrac <= 0 {
		o.PartialFeedOriginFrac = 0.25
	}
	if o.TopDownPasses <= 0 {
		o.TopDownPasses = 3
	}
	return o
}

// Result is the output of relationship inference.
type Result struct {
	// Rels maps each observed link to its inferred relationship in the
	// canonical orientation (relative to Link.A): P2C means Link.A is
	// the provider of Link.B.
	Rels map[paths.Link]topology.Relationship
	// Steps records which pipeline stage labeled each link.
	Steps map[paths.Link]Step
	// Clique is the inferred top clique, ascending ASN.
	Clique []uint32
	// Rank lists every observed AS in rank order (highest first).
	Rank []uint32
	// TransitDegree and Degree are the ranking metrics.
	TransitDegree map[uint32]int
	Degree        map[uint32]int
	// PoisonedPaths is the number of paths step 4 discarded.
	PoisonedPaths int
	// Providerless lists ASes inferred to peer with the clique instead
	// of buying transit (see inferencer.detectProviderless).
	Providerless []uint32
	// SanitizeStats reports step 1 when Options.Sanitize was set.
	SanitizeStats paths.SanitizeStats
	// Dataset is the post-step-4 corpus the inference actually used.
	Dataset *paths.Dataset
}

// Rel returns the inferred relationship of x relative to y: P2C means x
// is y's provider.
func (r *Result) Rel(x, y uint32) topology.Relationship {
	rel, ok := r.Rels[paths.NewLink(x, y)]
	if !ok {
		return topology.None
	}
	if paths.NewLink(x, y).A == x {
		return rel
	}
	return rel.Invert()
}

// Providers returns the inferred providers of asn, ascending.
func (r *Result) Providers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.C2P)
}

// Customers returns the inferred customers of asn, ascending.
func (r *Result) Customers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.P2C)
}

// Peers returns the inferred peers of asn, ascending.
func (r *Result) Peers(asn uint32) []uint32 {
	return r.neighborsWhere(asn, topology.P2P)
}

func (r *Result) neighborsWhere(asn uint32, want topology.Relationship) []uint32 {
	var out []uint32
	for l, rel := range r.Rels {
		var other uint32
		var oriented topology.Relationship
		switch asn {
		case l.A:
			other, oriented = l.B, rel
		case l.B:
			other, oriented = l.A, rel.Invert()
		default:
			continue
		}
		if oriented == want {
			out = append(out, other)
		}
	}
	slices.Sort(out)
	return out
}

// StepCounts tallies links per pipeline step, split by relationship.
type StepCounts struct {
	Step Step
	C2P  int
	P2P  int
}

// CountsByStep returns per-step link tallies in step order, feeding the
// pipeline-table experiment (R2).
func (r *Result) CountsByStep() []StepCounts {
	byStep := map[Step]*StepCounts{}
	for l, s := range r.Steps {
		c, ok := byStep[s]
		if !ok {
			c = &StepCounts{Step: s}
			byStep[s] = c
		}
		if r.Rels[l] == topology.P2P {
			c.P2P++
		} else {
			c.C2P++
		}
	}
	var out []StepCounts
	for _, s := range []Step{StepClique, StepTopDown, StepVP, StepStubClique, StepFold, StepPeer} {
		if c, ok := byStep[s]; ok {
			out = append(out, *c)
		}
	}
	return out
}

// Infer runs the full pipeline over a path corpus.
func Infer(ds *paths.Dataset, opts Options) *Result {
	return InferCtx(context.Background(), ds, opts)
}

// InferCtx is Infer with a context for tracing: when ctx carries a
// span, the run records a "core.infer" span with one child per
// pipeline step (core.infer.rank, core.infer.top_down, ...) carrying
// the links each step labeled as attributes — the trace-side view of
// the per-step metrics.
func InferCtx(ctx context.Context, ds *paths.Dataset, opts Options) *Result {
	opts = opts.withDefaults()
	inferRuns.Inc()
	ctx, infer := trace.StartStage(ctx, "core.infer", inferDuration)
	defer infer.End()
	infer.Span().SetAttrInt("paths", int64(len(ds.Paths)))
	var st paths.SanitizeStats
	if opts.Sanitize {
		sctx, stage := trace.StartStage(ctx, "core.infer.sanitize", inferStepDuration.With("sanitize"))
		ds, st = paths.SanitizeCtx(sctx, ds, paths.SanitizeOptions{IXPASes: opts.IXPASes, Workers: opts.Workers})
		stage.End()
	}
	return inferSanitized(ctx, ds, opts, st)
}

func inferSanitized(ctx context.Context, ds *paths.Dataset, opts Options, sanStats paths.SanitizeStats) *Result {
	f := foldCorpus(ctx, ds, opts)
	inferPoisoned.Add(uint64(f.dropped))
	if root := trace.FromContext(ctx); root != nil {
		root.SetAttrInt("poisoned_paths", int64(f.dropped))
	}

	res := InferIndexed(ctx, f.ix, f.rank, f.clique, opts)
	res.PoisonedPaths = f.dropped
	res.Dataset = f.kept
	res.SanitizeStats = sanStats
	return res
}

// corpusFold is what steps 2–4 derive from the corpus: both index
// layers, the ranking and clique, and the rows step 4 kept and dropped.
type corpusFold struct {
	ix           *CorpusIndex
	rank, clique []uint32
	kept         *paths.Dataset
	dropped      int
}

// foldCorpus runs steps 2–4, the only stages that touch the corpus
// itself; they build the two index layers the shared engine
// (InferIndexed) consumes. Their metric stages label no links.
//
// Steps 2–4 read only which adjacencies and hop triples exist, so each
// distinct hop sequence is folded into the index once, however many
// rows (prefixes, collectors) repeat it. Step 4's verdict is per
// sequence; the kept corpus and the dropped count are per row, in
// input order. opts must already carry its defaults.
func foldCorpus(ctx context.Context, ds *paths.Dataset, opts Options) corpusFold {
	f := corpusFold{ix: NewCorpusIndex()}
	var hs hopSet

	// Step 2: ranking.
	_, stage := trace.StartStage(ctx, "core.infer.rank", inferStepDuration.With("rank"))
	rowSeq := hs.internRows(ds)
	for _, seq := range hs.seqs {
		f.ix.AddPath(seq, 1)
	}
	f.rank = f.ix.Rank()
	stage.End()

	// Step 3: clique.
	_, stage = trace.StartStage(ctx, "core.infer.clique", inferStepDuration.With("clique"))
	f.clique = CliqueFromIndex(f.ix, f.rank, opts)
	stage.End()
	cliqueSet := make(map[uint32]bool, len(f.clique))
	for _, c := range f.clique {
		cliqueSet[c] = true
	}

	// Step 4: discard poisoned paths and build the kept layer.
	_, stage = trace.StartStage(ctx, "core.infer.poison", inferStepDuration.With("poison"))
	poisonedSeq := make([]bool, len(hs.seqs))
	for i, seq := range hs.seqs {
		if poisoned(seq, cliqueSet) {
			poisonedSeq[i] = true
		} else {
			f.ix.AddKept(seq, 1)
		}
	}
	f.kept = &paths.Dataset{Paths: make([]paths.Path, 0, len(ds.Paths))}
	for r, p := range ds.Paths {
		if poisonedSeq[rowSeq[r]] {
			f.dropped++
			continue
		}
		f.kept.Add(p)
	}
	stage.End()
	return f
}

// InferIndexed runs inference over an already-built corpus index with a
// precomputed ranking and clique: the intra-clique p2p labeling,
// provider-less detection, and steps 5–9, reading only the index's kept
// layer. It is the shared engine of the batch pipeline and the
// streaming engine — both execute this exact code over identical
// aggregates, which is the heart of the incremental==batch equivalence
// argument (DESIGN.md §15).
//
// rank and clique are copied into the Result; TransitDegree and Degree
// snapshot the index's current ranked-layer metrics.
func InferIndexed(ctx context.Context, ix *CorpusIndex, rank, clique []uint32, opts Options) *Result {
	opts = opts.withDefaults()
	res := &Result{
		Rels:          make(map[paths.Link]topology.Relationship),
		Steps:         make(map[paths.Link]Step),
		Rank:          append([]uint32(nil), rank...),
		Clique:        append([]uint32(nil), clique...),
		TransitDegree: ix.TransitDegrees(),
		Degree:        ix.Degrees(),
	}
	inferCliqueSize.Set(float64(len(res.Clique)))
	if root := trace.FromContext(ctx); root != nil {
		root.SetAttrInt("clique_size", int64(len(res.Clique)))
	}
	cliqueSet := make(map[uint32]bool, len(res.Clique))
	for _, c := range res.Clique {
		cliqueSet[c] = true
	}

	// stage runs one pipeline step as a trace stage and counts the
	// links it labeled; the labeled watermark attributes each new entry
	// in res.Steps to the stage that created it. spanName is a literal
	// at every call site so the obsnames analyzer can vet it.
	labeled := 0
	stage := func(spanName, step string, fn func()) {
		_, st := trace.StartStage(ctx, spanName, inferStepDuration.With(step))
		fn()
		if n := len(res.Steps); n > labeled {
			inferStepLinks.With(step).Add(uint64(n - labeled))
			st.Span().SetAttrInt("links_labeled", int64(n-labeled))
			labeled = n
		}
		st.End()
	}

	// Label intra-clique links p2p.
	stage("core.infer.clique_p2p", "clique-p2p", func() {
		for l := range ix.links {
			if cliqueSet[l.A] && cliqueSet[l.B] {
				res.Rels[l] = topology.P2P
				res.Steps[l] = StepClique
			}
		}
	})

	inf := newInferencer(ix, opts, res, cliqueSet)
	if !opts.DisableProviderless {
		stage("core.infer.providerless", "providerless", inf.detectProviderless)
	}
	stage("core.infer.top_down", "top-down", inf.topDown)          // step 5
	stage("core.infer.vp", "vp", inf.vpPass)                       // step 6
	stage("core.infer.stub_clique", "stub-clique", inf.stubClique) // step 7
	if !opts.DisableFold {
		stage("core.infer.fold", "fold", inf.fold) // step 8
	}
	stage("core.infer.peer_default", "peer-default", inf.peerRest) // step 9
	return res
}
