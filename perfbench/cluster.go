package main

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

const (
	// nodes is the agent count: three hosts on a 2-vCPU box, enough for
	// a 3-replica group on distinct nodes.
	nodes = 3
	// heartbeat is the agents' beat interval; status counters are at most
	// this stale.
	heartbeat = 100 * time.Millisecond
)

// pipeSpec is one pipeline a workload deploys: its segments and the
// benchmark-owned sink that receives its output.
type pipeSpec struct {
	id       string
	segments []river.SegmentSpec
	sink     func(*record.Record) error
	// unit prefixes the per-unit layer names of this pipeline's units
	// ("ha-" gives pipeline.ha-merge.*); empty names units by type.
	unit string
}

// sink is a benchmark-owned terminal: a loopback streamin whose records
// are handed to a workload's checker on one goroutine.
type sink struct {
	in   *pipeline.StreamIn
	done chan error
}

func startSink(name string, fn func(*record.Record) error) (*sink, error) {
	in, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("sink %s: %w", name, err)
	}
	s := &sink{in: in, done: make(chan error, 1)}
	p := pipeline.New().SetSource(in).SetSink(pipeline.SinkFunc{SinkName: name, Fn: fn})
	go func() { s.done <- p.Run(context.Background()) }()
	return s, nil
}

func (s *sink) close() error {
	_ = s.in.Close()
	return <-s.done
}

// cluster is one in-process deployment: a coordinator, the agents, and a
// sink per pipeline, all on loopback TCP.
type cluster struct {
	coord   *river.Coordinator
	agents  []*river.Agent
	pipes   []pipeSpec
	sinks   []*sink
	stop    context.CancelFunc
	agentWG sync.WaitGroup
	placed  time.Duration // coordinator start through WaitPlaced
}

func startCluster(pipes []pipeSpec, reg *pipeline.Registry) (*cluster, error) {
	c := &cluster{pipes: pipes, stop: func() {}}
	specs := make([]river.PipelineSpec, 0, len(pipes))
	for _, p := range pipes {
		s, err := startSink(p.id, p.sink)
		if err != nil {
			c.close()
			return nil, err
		}
		c.sinks = append(c.sinks, s)
		specs = append(specs, river.PipelineSpec{ID: p.id, Segments: p.segments, SinkAddr: s.in.Addr()})
	}
	start := time.Now()
	coord, err := river.NewCoordinator(river.Config{
		Pipelines:         specs,
		HeartbeatInterval: heartbeat,
		MinNodes:          nodes,
	})
	if err != nil {
		c.close()
		return nil, fmt.Errorf("coordinator: %w", err)
	}
	c.coord = coord
	ctx, cancel := context.WithCancel(context.Background())
	c.stop = cancel
	for i := 0; i < nodes; i++ {
		a := river.NewAgent(fmt.Sprintf("node-%d", i+1), coord.Addr(), reg)
		a.Heartbeat = heartbeat
		c.agents = append(c.agents, a)
		c.agentWG.Add(1)
		go func() {
			defer c.agentWG.Done()
			_ = a.Run(ctx) // returns nil once ctx is cancelled; a dial failure shows as a placement timeout
		}()
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		c.close()
		return nil, err
	}
	c.placed = time.Since(start)
	return c, nil
}

// close stops the agents (and with them every hosted unit), the
// coordinator and the sinks, and waits for all of them.
func (c *cluster) close() {
	c.stop()
	c.agentWG.Wait()
	if c.coord != nil {
		_ = c.coord.Close()
	}
	for _, s := range c.sinks {
		_ = s.close()
	}
}

// wireSnap counts what every hop has written: the stations' streamouts
// plus every hosted unit's egress, read live from the agents' nodes.
type wireSnap struct {
	bytes, recs, batches float64
}

func (c *cluster) wire(stations ...*pipeline.StreamOut) wireSnap {
	var w wireSnap
	for _, s := range stations {
		w.bytes += float64(s.BytesOut())
		w.recs += float64(s.RecordsOut())
		w.batches += float64(s.BatchesOut())
	}
	for _, a := range c.agents {
		for _, st := range a.Node().Stats() {
			w.bytes += float64(st.BytesOut)
			w.recs += float64(st.RecordsOut)
			w.batches += float64(st.BatchesOut)
		}
	}
	return w
}

// unitStats is one hosted unit's heartbeat telemetry, labelled with the
// per-layer unit name it reports under.
type unitStats struct {
	layer string
	river.SegmentStatus
}

// settledStatus waits until every node has beaten at least twice since
// the call, so the coordinator's counters include everything the data
// plane did before it, then returns the units' telemetry.
func (c *cluster) settledStatus() []unitStats {
	time.Sleep(3 * heartbeat)
	st := c.coord.Status()
	layer := make(map[string]string)
	for _, ps := range st.Pipelines {
		prefix := ""
		for _, p := range c.pipes {
			if p.id == ps.ID {
				prefix = p.unit
			}
		}
		for _, pl := range ps.Placements {
			name := pl.Role
			if name == "" {
				name = pl.Type
			}
			layer[pl.Seg] = prefix + name
		}
	}
	var out []unitStats
	for _, n := range st.Nodes {
		for _, s := range n.Segments {
			out = append(out, unitStats{layer: layer[s.Name], SegmentStatus: s})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// replicaLoss folds the control plane's loss and repair counters into
// one failure count: records a splitter dropped toward a leg, records a
// merger or collector skipped or discarded untagged, and scope repairs
// synthesized anywhere, the sinks included.
func (c *cluster) replicaLoss(units []unitStats) int {
	n := 0
	for _, u := range units {
		n += int(u.LegDrops + u.Skipped + u.Untagged + u.BadCloses)
	}
	for _, s := range c.sinks {
		n += int(s.in.BadCloses())
	}
	return n
}

// waitCount waits until n results have completed or drainWait passes;
// whatever has not completed by then is counted missing by the caller.
func waitCount(done *atomic.Int64, n int) {
	deadline := time.Now().Add(drainWait)
	for done.Load() < int64(n) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// sampleStatus times Coordinator.Status every 250ms until the returned
// stop function is called.
func sampleStatus(c *cluster, into *[]float64) (stop func()) {
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(250 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				start := time.Now()
				c.coord.Status()
				*into = append(*into, float64(time.Since(start))/1e3)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}
