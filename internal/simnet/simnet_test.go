package simnet

import "testing"

func TestTransferTime(t *testing.T) {
	c := DefaultCostModel()
	base := c.TransferTime(0)
	if base != c.HopLatency {
		t.Fatalf("zero-byte transfer = %v, want hop latency %v", base, c.HopLatency)
	}
	big := c.TransferTime(1 << 20)
	if big <= base {
		t.Fatal("larger messages must take longer")
	}
}

func TestProbeAndScanCost(t *testing.T) {
	c := DefaultCostModel()
	if c.ProbeCost(0) != 0 {
		t.Fatal("probing zero records should be free")
	}
	if c.ProbeCost(1000) != Time(1000)*c.MemProbe {
		t.Fatal("probe cost not linear")
	}
	// Within memory: scan == probe.
	if c.ScanCost(100, c.MemCapacity) != c.ProbeCost(100) {
		t.Fatal("in-memory scan should equal probe cost")
	}
	// Beyond memory: disk pages dominate.
	inMem := c.ScanCost(10000, c.MemCapacity)
	paged := c.ScanCost(10000, c.MemCapacity*10)
	if paged <= inMem {
		t.Fatalf("paged scan %v not slower than in-memory %v", paged, inMem)
	}
	if c.ScanCost(0, c.MemCapacity*10) != 0 {
		t.Fatal("scanning zero records should be free")
	}
}
