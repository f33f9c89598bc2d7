package cluster

import (
	"cmp"
	"slices"

	"repro/internal/semtree"
	"repro/internal/simnet"
)

// Message size constants (bytes) for the virtual network.
const (
	queryMsgBytes = 256
	resultMsgBase = 64
	resultPerID   = 16
)

// Each operation sends a fixed pattern of messages, so its virtual
// latency and message count are closed forms over the simnet cost
// model. A storage unit is its own server and works on one request at
// a time, in arrival order; the client does no work.

// defaultCost is the cost model every deployment is accounted under.
var defaultCost = simnet.DefaultCostModel()

// groupCost is one searched group's share of a complex query: the leaf
// whose server hosts the group, the time the search takes there, and
// the number of ids the host replies with.
type groupCost struct {
	host *semtree.Node
	work simnet.Time
	ids  int
}

// complexCost accounts a complex query that searches groups, in order,
// from the home unit (§3.3–3.4). The client sends the query to home,
// which works for the multicast identification — one Bloom/MBR check
// per group — on-line, or for the LSI fold-in against its replica
// vectors off-line, and then sends it to every group host at once. A
// host searches its groups one after another. Home handles each reply
// in arrival order, behind any group search it hosts itself; this
// serialized fan-in is what makes the on-line multicast slower at scale
// (Fig. 13a). Home answers the client after the last reply. order lists
// the groups by completion time, ties in group order: the order their
// ids join the answer.
func complexCost(cost simnet.CostModel, home *semtree.Node, groups []groupCost, online bool) (order []int, latency simnet.Time, messages int64) {
	lead := cost.LSIFold
	if online {
		lead = cost.ProbeCost(len(groups))
	}
	t0 := cost.TransferTime(queryMsgBytes) + lead
	if len(groups) == 0 {
		return nil, t0, 1
	}
	// idle[i] is when hosts[i] has worked off its queue; home's opens at t0.
	hosts, idle := []*semtree.Node{home}, []simnet.Time{t0}
	arrive := t0 + cost.TransferTime(queryMsgBytes)
	done := make([]simnet.Time, len(groups))  // group finishes searching
	reply := make([]simnet.Time, len(groups)) // its reply reaches home
	total := 0
	for g, gc := range groups {
		h := slices.Index(hosts, gc.host)
		if h < 0 {
			h = len(hosts)
			hosts, idle = append(hosts, gc.host), append(idle, 0)
		}
		idle[h] = max(idle[h], arrive) + gc.work
		done[g] = idle[h]
		reply[g] = done[g] + cost.TransferTime(resultMsgBase+resultPerID*gc.ids)
		total += gc.ids
	}
	order = make([]int, len(groups))
	for g := range order {
		order[g] = g
	}
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(done[a], done[b]) })
	// Replies reach home in (arrival, completion order).
	fanIn := slices.Clone(order)
	slices.SortStableFunc(fanIn, func(a, b int) int { return cmp.Compare(reply[a], reply[b]) })
	last := idle[0]
	for _, g := range fanIn {
		last = max(last, reply[g]) + cost.MsgHandle
	}
	return order, last + cost.TransferTime(resultMsgBase+resultPerID*total), int64(2*len(groups) + 2)
}

// pointCost accounts a point query (§3.3.3): the client sends the query
// to home, home checks its Bloom filters for work and forwards to every
// unit with a positive (modelled as one round to the farthest), and the
// answer of ids returns through home to the client.
func pointCost(cost simnet.CostModel, work simnet.Time, ids, units int) (simnet.Time, int64) {
	reply := cost.TransferTime(resultMsgBase + resultPerID*ids)
	return cost.TransferTime(queryMsgBytes) + work + reply + reply, int64(3 + max(1, units))
}

// updateCost accounts one metadata update's round trip: client → unit,
// local index update, ack.
func updateCost(cost simnet.CostModel) (simnet.Time, int64) {
	return cost.TransferTime(queryMsgBytes) + (cost.ProbeCost(1) + cost.LSIFold) + cost.TransferTime(resultMsgBase), 2
}
