package core

import (
	"math"
	"testing"

	"repro/internal/stats"
	"repro/internal/trace"
)

func TestNewInstanceDefaults(t *testing.T) {
	in := NewInstance(Options{Spec: trace.MSN(), BaseFiles: 500, Units: 10, Seed: 1})
	if len(in.Set.Files) != 500 {
		t.Fatalf("sample = %d files, want 500", len(in.Set.Files))
	}
	if in.Opt.VirtualTIF != trace.MSN().DefaultTIF {
		t.Fatalf("VirtualTIF = %d, want default %d", in.Opt.VirtualTIF, trace.MSN().DefaultTIF)
	}
	// MSN×100 = 125M virtual files over a 500-file sample.
	if in.VirtualScale < 1e4 {
		t.Fatalf("VirtualScale = %v, implausibly small", in.VirtualScale)
	}
	if err := in.Tree.Validate(); err != nil {
		t.Fatalf("deployed tree invalid: %v", err)
	}
	if in.Replicas != nil || in.Cluster.Cfg.Replicas != nil {
		t.Fatal("a replica model deployed without a lazy threshold")
	}
}

func TestNewInstancePanicsWithoutSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewInstance without spec did not panic")
		}
	}()
	NewInstance(Options{})
}

func TestObserveRangeAndTopK(t *testing.T) {
	in := NewInstance(Options{Spec: trace.EECS(), BaseFiles: 800, Units: 10, Seed: 3})
	gen := in.QueryGen(stats.Zipf, 7)
	out := NewRecallOutcome()
	for i := 0; i < 20; i++ {
		in.ObserveRange(gen.Range(0.05), out)
		in.ObserveTopK(gen.TopK(8), out)
	}
	// Latencies are positive, so sum/mean recovers the observation count.
	if n := math.Round(out.Latency.Sum() / out.Latency.Mean()); n != 40 {
		t.Fatalf("latency observations = %v, want 40", n)
	}
	if m := out.Recall.Mean(); m < 0.5 || m > 1 {
		t.Fatalf("recall mean = %v out of plausible range (0 when none recorded)", m)
	}
	// One probe hop into the least-filled bucket moves its share from
	// f = c/n to g = (c+1)/(n+1), which recovers the count n.
	b := 0
	for i := 1; i < 8; i++ {
		if out.Hops.Fraction(i) < out.Hops.Fraction(b) {
			b = i
		}
	}
	f := out.Hops.Fraction(b)
	out.Hops.Add(b)
	g := out.Hops.Fraction(b)
	if n := math.Round((1 - g) / (g - f)); n != 40 {
		t.Fatalf("hop observations = %v, want 40", n)
	}
}

func TestTIFSampleScalesPopulation(t *testing.T) {
	in := NewInstance(Options{Spec: trace.MSN(), BaseFiles: 100, TIFSample: 3, Units: 5, Seed: 11})
	if len(in.Set.Files) != 300 {
		t.Fatalf("TIF-sampled population = %d, want 300", len(in.Set.Files))
	}
}
