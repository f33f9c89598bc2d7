// Package simnet is a deterministic discrete-event simulator of the
// storage cluster the SmartStore prototype ran on (§5.1: "a cluster of
// 60 storage units ... high-speed network connections").
//
// The physical testbed is replaced by a virtual-time event loop: nodes
// exchange messages whose delivery time is propagation latency plus
// serialization at link bandwidth, and local work (index probes, disk
// pages, LSI fold-ins) advances a node's busy time through the CostModel.
// All evaluation metrics that the paper reports in wall-clock terms —
// query latency (Table 4), on-line vs off-line latency and message count
// (Fig. 13), versioning latency (Fig. 14) — are measured in this virtual
// time, which makes runs deterministic and hardware-independent while
// preserving relative magnitudes.
package simnet

import (
	"container/heap"
	"fmt"
	"math"
)

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

// Event is a scheduled callback in virtual time.
type event struct {
	at  Time
	seq uint64 // tie-break so simultaneous events fire FIFO
	fn  func()
}

type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *eventHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// Sim is one simulation run: an event queue, a virtual clock, and a
// per-run message counter.
type Sim struct {
	Cost CostModel

	now      Time
	seq      uint64
	events   eventHeap
	messages int64
	nodes    []*Node
}

// New returns a simulator with n nodes under the given cost model.
func New(n int, cost CostModel) *Sim {
	if n <= 0 {
		panic(fmt.Sprintf("simnet: need at least one node, got %d", n))
	}
	s := &Sim{Cost: cost}
	s.nodes = make([]*Node, n)
	for i := range s.nodes {
		s.nodes[i] = &Node{sim: s}
	}
	return s
}

// Node is one storage server in the simulated cluster.
type Node struct {
	sim  *Sim
	busy Time // the node is serially busy until this time
}

// Node returns node i.
func (s *Sim) Node(i int) *Node { return s.nodes[i] }

// Messages returns the number of messages sent since the last
// ResetCounters.
func (s *Sim) Messages() int64 { return s.messages }

// ResetCounters zeroes the message counter (per-experiment
// accounting).
func (s *Sim) ResetCounters() { s.messages = 0 }

// Schedule runs fn after delay of virtual time. Negative delays are
// clamped to zero.
func (s *Sim) Schedule(delay Time, fn func()) {
	if delay < 0 {
		delay = 0
	}
	s.seq++
	heap.Push(&s.events, event{at: s.now + delay, seq: s.seq, fn: fn})
}

// Run processes events until the queue drains, returning the final
// virtual time.
func (s *Sim) Run() Time {
	for s.events.Len() > 0 {
		e := heap.Pop(&s.events).(event)
		s.now = e.at
		e.fn()
	}
	return s.now
}

// Send transmits a message of size bytes from n to dst, invoking fn at
// dst when it arrives. Delivery time is the cost model's transfer time.
func (n *Node) Send(dst *Node, size int, fn func(at *Node)) {
	s := n.sim
	s.messages++
	s.Schedule(s.Cost.TransferTime(size), func() { fn(dst) })
}

// Multicast sends the same message to every destination; deliveries are
// concurrent (each counts as one message).
func (n *Node) Multicast(dsts []*Node, size int, fn func(at *Node)) {
	for _, d := range dsts {
		n.Send(d, size, fn)
	}
}

// Work occupies the node for d of virtual time and calls fn when the
// work completes. Work is serialized per node: requests queue behind the
// node's busy horizon, modelling a single-service-queue server.
func (n *Node) Work(d Time, fn func()) {
	s := n.sim
	start := s.now
	if n.busy > start {
		start = n.busy
	}
	n.busy = start + d
	s.Schedule(n.busy-s.now, fn)
}

// Latency measures one request's virtual completion time: it schedules
// start at the current clock, runs the simulation to completion, and
// returns the elapsed virtual time between injection and the moment
// done() was called inside the event graph.
//
// Typical use:
//
//	lat := sim.Latency(func(done func()) {
//	    client.Send(home, 128, func(at *simnet.Node) { ... ; done() })
//	})
func (s *Sim) Latency(start func(done func())) Time {
	injected := s.now
	finished := Time(-1)
	start(func() {
		if finished < 0 {
			finished = s.now
		}
	})
	s.Run()
	if finished < 0 {
		panic("simnet: request never completed — done() was not called")
	}
	return finished - injected
}
