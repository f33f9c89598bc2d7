// Package core composes the SmartStore engine for the evaluation
// harness: it turns a trace specification into a fully deployed
// instance — generated workload, semantic placement, semantic R-tree,
// simulated cluster — with the virtual-population scaling derived from
// the trace's published size, and provides the recall-evaluation
// helpers shared by the experiments and benches.
package core

import (
	"repro/internal/cluster"
	"repro/internal/metadata"
	"repro/internal/query"
	"repro/internal/semtree"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options selects a workload and deployment shape.
type Options struct {
	// Spec is the trace to synthesize (required).
	Spec *trace.Spec
	// BaseFiles is the sample population before TIF scale-up. Zero
	// selects 2000.
	BaseFiles int
	// TIFSample is the scale-up factor applied to the in-memory sample.
	// Zero selects 1 (the virtual population is scaled regardless; see
	// VirtualTIF).
	TIFSample int
	// VirtualTIF is the TIF used for virtual-population scaling — the
	// paper's trace intensifying factor. Zero selects Spec.DefaultTIF.
	VirtualTIF int
	// Units is the number of storage units. Zero selects 60 (§5.1).
	Units int
	// Attrs is the grouping predicate. Nil selects the default query
	// attributes.
	Attrs []metadata.Attr
	// Versioning, VersionRatio and LazyThreshold configure §4.4/§3.4:
	// a positive LazyThreshold deploys the LazyReplicas model.
	Versioning    bool
	VersionRatio  int
	LazyThreshold float64
	// Seed drives workload synthesis and deployment decisions.
	Seed uint64
}

// Instance is a deployed SmartStore over a synthesized workload.
type Instance struct {
	Opt     Options
	Set     *trace.Set
	Tree    *semtree.Tree
	Cluster *cluster.Cluster
	// Replicas is the deployment's lazy replica model; nil without a
	// LazyThreshold.
	Replicas *LazyReplicas
	// VirtualScale is the sample→virtual population multiplier used by
	// the cost model.
	VirtualScale float64
}

// NewInstance builds a deployed instance. It panics on a nil spec (the
// harness is internal; misuse is a programming error).
func NewInstance(opt Options) *Instance {
	if opt.Spec == nil {
		panic("core: Options.Spec is required")
	}
	if opt.BaseFiles == 0 {
		opt.BaseFiles = 2000
	}
	if opt.TIFSample == 0 {
		opt.TIFSample = 1
	}
	if opt.VirtualTIF == 0 {
		opt.VirtualTIF = opt.Spec.DefaultTIF
	}
	if opt.Units == 0 {
		opt.Units = 60
	}
	if opt.Attrs == nil {
		opt.Attrs = trace.DefaultQueryAttrs()
	}

	set := opt.Spec.GenerateScaled(opt.BaseFiles, opt.TIFSample, opt.Seed)
	sample := len(set.Files)
	virtualTotal := opt.Spec.NominalFiles * float64(opt.VirtualTIF)
	scale := virtualTotal / float64(sample)
	if scale < 1 {
		scale = 1
	}

	units := semtree.PlaceSemantic(set.Files, opt.Units, set.Norm, opt.Attrs)
	tree := semtree.Build(units, set.Norm, semtree.Config{Attrs: opt.Attrs})
	in := &Instance{Opt: opt, Set: set, Tree: tree, VirtualScale: scale}
	cfg := cluster.Config{Seed: opt.Seed, VirtualScale: scale}
	if opt.LazyThreshold > 0 {
		in.Replicas = newLazyReplicas(tree, opt)
		cfg.Replicas = in.Replicas
	}
	in.Cluster = cluster.New(tree, cfg)
	return in
}

// WrapDeployment wraps an externally built tree (over the given
// workload) into a deployed Instance with no virtual scaling — used by
// ablation experiments that compare alternative constructions.
func WrapDeployment(set *trace.Set, tree *semtree.Tree, seed uint64) *Instance {
	cl := cluster.New(tree, cluster.Config{Seed: seed})
	return &Instance{
		Opt:          Options{Spec: set.Spec, Units: len(tree.Leaves()), Seed: seed, Attrs: tree.Attrs},
		Set:          set,
		Tree:         tree,
		Cluster:      cl,
		VirtualScale: 1,
	}
}

// QueryGen returns a deterministic complex-query generator over the
// instance's workload.
func (in *Instance) QueryGen(dist stats.Distribution, seed uint64) *trace.QueryGen {
	return trace.NewQueryGen(in.Set, dist, in.Opt.Attrs, seed)
}

// RecallOutcome aggregates recall and cost over a query batch.
type RecallOutcome struct {
	Recall   stats.Summary
	Latency  stats.Summary
	Messages stats.Summary
	Hops     *stats.Histogram
}

// NewRecallOutcome returns an empty outcome accumulator.
func NewRecallOutcome() *RecallOutcome {
	return &RecallOutcome{Hops: stats.NewHistogram(8)}
}

// ObserveRange runs one off-line range query and records recall against
// exhaustive truth.
func (in *Instance) ObserveRange(q query.Range, out *RecallOutcome) {
	got, res := in.Cluster.RangeOffline(q)
	truth := query.RangeTruth(in.Set.Files, q)
	if len(truth) > 0 {
		out.Recall.Add(stats.Recall(truth, got))
	}
	out.Latency.Add(float64(res.Latency))
	out.Messages.Add(float64(res.Messages))
	out.Hops.Add(res.Hops)
}

// ObserveTopK runs one off-line top-k query and records recall.
func (in *Instance) ObserveTopK(q query.TopK, out *RecallOutcome) {
	got, res := in.Cluster.TopKOffline(q)
	truth := query.TopKTruth(in.Set.Files, in.Set.Norm, q)
	if len(truth) > 0 {
		out.Recall.Add(stats.Recall(truth, got))
	}
	out.Latency.Add(float64(res.Latency))
	out.Messages.Add(float64(res.Messages))
	out.Hops.Add(res.Hops)
}
