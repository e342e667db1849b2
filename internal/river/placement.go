package river

import "sort"

// NodeLoad summarizes one live node for placement decisions. Beyond the
// segment count it carries the flow-control telemetry aggregated from the
// node's latest heartbeat, so policies can weigh how saturated a node is
// rather than just how populated.
type NodeLoad struct {
	// Name is the node's registered name.
	Name string
	// Segments is the number of pipeline segments currently placed there.
	Segments int
	// Lag is the summed processed−emitted delta across the node's hosted
	// segments, from its latest heartbeat.
	Lag uint64
	// QueueDepth and QueueCap are the summed streamin emit-queue backlog
	// and bound across hosted segments; depth near cap means the node's
	// operator chains cannot keep up with ingest.
	QueueDepth int
	QueueCap   int
	// HostsNeighbor reports that the node already hosts a segment adjacent
	// (in the pipeline spec) to the one being placed, so placing here
	// would put two consecutive segments on one failure domain.
	HostsNeighbor bool
}

// Saturation returns the node's queue saturation in [0, 1]: the emit-queue
// backlog as a fraction of its bound. Nodes reporting no queue (nothing
// queue-backed hosted) read as unsaturated.
func (n NodeLoad) Saturation() float64 {
	if n.QueueCap <= 0 {
		return 0
	}
	s := float64(n.QueueDepth) / float64(n.QueueCap)
	if s > 1 {
		s = 1
	}
	return s
}

// Placer chooses the node that should host a segment. Pick returns the
// chosen node's name, or "" when no candidate is acceptable. Candidates
// are all live registered nodes.
type Placer interface {
	Pick(cands []NodeLoad) string
}

// LeastLoaded places each segment on the node hosting the fewest
// segments, breaking ties by name so placement is deterministic. It is
// the coordinator's default policy.
type LeastLoaded struct{}

// Pick implements Placer.
func (LeastLoaded) Pick(cands []NodeLoad) string {
	if len(cands) == 0 {
		return ""
	}
	best := cands[0]
	for _, c := range cands[1:] {
		if c.Segments < best.Segments || (c.Segments == best.Segments && c.Name < best.Name) {
			best = c
		}
	}
	return best.Name
}

// LoadAware weights segment count by the backpressure each node reports —
// queue saturation from heartbeats, optionally processing lag — so
// re-placements land on the least-saturated node, not merely the
// least-populated one. A node with few segments but a saturated streamin
// queue scores worse than an idle node carrying more segments.
//
// The zero value uses the default weights; it is ready to use as
// Config.Placer.
type LoadAware struct {
	// SatWeight is how many idle segments a fully saturated emit queue is
	// worth (default 4): a node at 100% queue saturation loses to any node
	// hosting up to 4 more segments than it, as long as they are idle.
	SatWeight float64
	// LagWeight converts lagged records into segment-equivalents (e.g.
	// 1/5000: five thousand records of backlog weigh like one extra
	// segment). It defaults to 0 — disabled — because lag is derived from
	// the cumulative processed−emitted delta, and for filtering segments
	// (the extraction chain discards ~80% of records by design) that
	// delta grows forever on a perfectly healthy node. Enable it only for
	// pipelines whose operators are record-for-record.
	LagWeight float64
}

// Score returns the load score Pick minimizes, exposed for tests and
// status tooling.
func (p LoadAware) Score(c NodeLoad) float64 {
	sat := p.SatWeight
	if sat == 0 {
		sat = 4
	}
	return float64(c.Segments) + sat*c.Saturation() + p.LagWeight*float64(c.Lag)
}

// Pick implements Placer: minimum score, ties broken by name.
func (p LoadAware) Pick(cands []NodeLoad) string {
	if len(cands) == 0 {
		return ""
	}
	best := cands[0]
	bestScore := p.Score(best)
	for _, c := range cands[1:] {
		s := p.Score(c)
		if s < bestScore || (s == bestScore && c.Name < best.Name) {
			best, bestScore = c, s
		}
	}
	return best.Name
}

// Spread places consecutive pipeline segments on distinct nodes where
// possible, so one host failure cuts the stream in at most one place. The
// rotation position is derived from the candidates themselves (total
// placed segments modulo the sorted node list), not a free-running
// counter, so the policy is deterministic across coordinator restarts;
// candidates already hosting a neighbor of the segment being placed are
// skipped while alternatives exist.
type Spread struct{}

// Pick implements Placer.
func (Spread) Pick(cands []NodeLoad) string {
	if len(cands) == 0 {
		return ""
	}
	byName := make(map[string]NodeLoad, len(cands))
	names := make([]string, len(cands))
	placed := 0
	for i, c := range cands {
		names[i] = c.Name
		byName[c.Name] = c
		placed += c.Segments
	}
	sort.Strings(names)
	start := placed % len(names)
	for i := 0; i < len(names); i++ {
		name := names[(start+i)%len(names)]
		if byName[name].HostsNeighbor {
			continue
		}
		return name
	}
	// Every candidate hosts a neighbor (fewer nodes than chain links):
	// fall back to the rotation slot.
	return names[start]
}
