// Package simnet is the virtual cost model of the storage cluster the
// SmartStore prototype ran on (§5.1: "a cluster of 60 storage units ...
// high-speed network connections").
//
// The physical testbed is replaced by virtual time: a message costs
// propagation latency plus serialization at link bandwidth, and local
// work (index probes, disk pages, LSI fold-ins) costs what the
// CostModel says. Package cluster composes these primitives in closed
// form over each operation's fixed message pattern. All evaluation
// metrics that the paper reports in wall-clock terms — query latency
// (Table 4), on-line vs off-line latency and message count (Fig. 13),
// versioning latency (Fig. 14) — are measured in this virtual time,
// which makes runs deterministic and hardware-independent while
// preserving relative magnitudes.
package simnet

import "math"

// Time is virtual time in seconds.
type Time float64

// CostModel fixes the virtual costs of primitive operations. Defaults
// are calibrated in DESIGN.md §4 so the baselines land in the paper's
// latency regime.
type CostModel struct {
	HopLatency   Time    // one-way network propagation per message
	BandwidthBps float64 // link bandwidth for message serialization
	MemProbe     Time    // examining one in-memory record / index entry
	DiskPage     Time    // reading one page from disk
	PageRecords  int     // records per disk page
	MemCapacity  int     // records a node can hold in memory before paging
	LSIFold      Time    // folding one query vector into the LSI subspace
	BloomCheck   Time    // one Bloom-filter membership test
	MsgHandle    Time    // CPU time to receive/dispatch one message
}

// DefaultCostModel returns the calibration used by all experiments:
// gigabit-class interconnect, commodity-2009 disk and DRAM figures.
func DefaultCostModel() CostModel {
	return CostModel{
		HopLatency:   200e-6, // 0.2 ms
		BandwidthBps: 1e9 / 8,
		MemProbe:     200e-9,  // 0.2 µs per record
		DiskPage:     5e-3,    // 5 ms per (large, scan-sized) page
		PageRecords:  1000,    // ⇒ ~200k records/s streamed off disk
		MemCapacity:  4 << 20, // ~4M records in 2GB RAM at ~500B each (§5.1 nodes)
		LSIFold:      5e-6,
		BloomCheck:   100e-9,
		MsgHandle:    20e-6, // per-message receive/dispatch CPU cost
	}
}

// TransferTime returns the network time for one message of size bytes.
func (c CostModel) TransferTime(bytes int) Time {
	return c.HopLatency + Time(float64(bytes)/c.BandwidthBps)
}

// ProbeCost returns the node-local time to examine n records that are
// resident in memory.
func (c CostModel) ProbeCost(n int) Time {
	return Time(n) * c.MemProbe
}

// ScanCost returns the node-local time to examine n records on a node
// holding total records: the portion beyond memory capacity pages from
// disk. This is what makes the DBMS baseline's brute-force scans slow at
// scale, reproducing the 10³× gap of Table 4.
func (c CostModel) ScanCost(n, total int) Time {
	if total <= c.MemCapacity || n == 0 {
		return c.ProbeCost(n)
	}
	diskFrac := float64(total-c.MemCapacity) / float64(total)
	diskRecs := int(math.Ceil(float64(n) * diskFrac))
	memRecs := n - diskRecs
	pages := (diskRecs + c.PageRecords - 1) / c.PageRecords
	return c.ProbeCost(memRecs) + Time(pages)*c.DiskPage
}
