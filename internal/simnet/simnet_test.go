package simnet

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewPanicsOnZeroNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0, ...) did not panic")
		}
	}()
	New(0, DefaultCostModel())
}

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

func TestScheduleOrdering(t *testing.T) {
	s := New(1, DefaultCostModel())
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("event order = %v", order)
	}
	if s.now != 3 {
		t.Fatalf("clock = %v, want 3", s.now)
	}
}

func TestScheduleTieFIFO(t *testing.T) {
	s := New(1, DefaultCostModel())
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("simultaneous events not FIFO: %v", order)
		}
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	s := New(1, DefaultCostModel())
	ran := false
	s.Schedule(-5, func() { ran = true })
	s.Run()
	if !ran || s.now != 0 {
		t.Fatalf("negative delay mishandled: ran=%v now=%v", ran, s.now)
	}
}

func TestSendCountsMessagesAndBytes(t *testing.T) {
	s := New(2, DefaultCostModel())
	var delivered *Node
	s.Node(0).Send(s.Node(1), 512, func(at *Node) { delivered = at })
	s.Run()
	if delivered != s.Node(1) {
		t.Fatal("message not delivered at node 1")
	}
	if s.Messages() != 1 {
		t.Fatalf("counted %d messages, want 1", s.Messages())
	}
	s.ResetCounters()
	if s.Messages() != 0 {
		t.Fatal("ResetCounters failed")
	}
}

func TestMulticast(t *testing.T) {
	s := New(5, DefaultCostModel())
	var got []*Node
	s.Node(0).Multicast(s.nodes[1:], 64, func(at *Node) { got = append(got, at) })
	s.Run()
	if len(got) != 4 {
		t.Fatalf("multicast reached %d nodes, want 4", len(got))
	}
	if s.Messages() != 4 {
		t.Fatalf("multicast counted %d messages, want 4", s.Messages())
	}
}

func TestWorkSerializesPerNode(t *testing.T) {
	s := New(1, DefaultCostModel())
	n := s.Node(0)
	var t1, t2 Time
	n.Work(10, func() { t1 = s.now })
	n.Work(10, func() { t2 = s.now })
	s.Run()
	if t1 != 10 {
		t.Fatalf("first work completed at %v, want 10", t1)
	}
	if t2 != 20 {
		t.Fatalf("second work completed at %v, want 20 (queued behind first)", t2)
	}
}

func TestWorkOnDifferentNodesParallel(t *testing.T) {
	s := New(2, DefaultCostModel())
	var t1, t2 Time
	s.Node(0).Work(10, func() { t1 = s.now })
	s.Node(1).Work(10, func() { t2 = s.now })
	s.Run()
	if t1 != 10 || t2 != 10 {
		t.Fatalf("parallel work = %v/%v, want 10/10", t1, t2)
	}
}

func TestLatencyRequestResponse(t *testing.T) {
	c := DefaultCostModel()
	s := New(2, c)
	lat := s.Latency(func(done func()) {
		s.Node(0).Send(s.Node(1), 100, func(at *Node) {
			at.Work(c.ProbeCost(1000), func() {
				at.Send(s.Node(0), 100, func(*Node) { done() })
			})
		})
	})
	want := 2*c.TransferTime(100) + c.ProbeCost(1000)
	if math.Abs(float64(lat-want)) > 1e-12 {
		t.Fatalf("latency = %v, want %v", lat, want)
	}
}

func TestLatencyPanicsWithoutDone(t *testing.T) {
	s := New(1, DefaultCostModel())
	defer func() {
		if recover() == nil {
			t.Error("Latency without done() did not panic")
		}
	}()
	s.Latency(func(done func()) {})
}

func TestMulticastLatencyIsMax(t *testing.T) {
	// A fan-out/fan-in pattern completes when the slowest branch does.
	c := DefaultCostModel()
	s := New(4, c)
	workloads := []Time{0.010, 0.030, 0.020}
	lat := s.Latency(func(done func()) {
		pending := len(workloads)
		s.Node(0).Multicast(s.nodes[1:], 64, func(at *Node) {
			at.Work(workloads[slices.Index(s.nodes, at)-1], func() {
				at.Send(s.Node(0), 64, func(*Node) {
					pending--
					if pending == 0 {
						done()
					}
				})
			})
		})
	})
	want := 2*c.TransferTime(64) + 0.030
	if math.Abs(float64(lat-want)) > 1e-12 {
		t.Fatalf("fan-in latency = %v, want %v (slowest branch)", lat, want)
	}
}

// Property: virtual time never goes backwards regardless of scheduling
// pattern.
func TestPropertyClockMonotone(t *testing.T) {
	f := func(delays []uint16) bool {
		s := New(1, DefaultCostModel())
		last := Time(-1)
		ok := true
		for _, d := range delays {
			s.Schedule(Time(d)/1000, func() {
				if s.now < last {
					ok = false
				}
				last = s.now
			})
		}
		s.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: message counter equals exactly the number of Send calls.
func TestPropertyMessageCount(t *testing.T) {
	f := func(n uint8) bool {
		s := New(2, DefaultCostModel())
		for i := 0; i < int(n); i++ {
			s.Node(0).Send(s.Node(1), 10, func(*Node) {})
		}
		s.Run()
		return s.Messages() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
