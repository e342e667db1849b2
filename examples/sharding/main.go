// Sharding: demonstrates keyed stream sharding with the elastic
// autoscaler — the data-parallel answer to a hot segment. Where
// replication (examples/replication) runs N identical copies for fault
// tolerance, a sharded segment splits the work: a partitioner hashes
// every record's SourceID to one of K parallel shard legs and annotates
// it with a global sequence number, and a collector fans the legs back
// in, restoring the exact input order through the same seq-indexed
// reorder ring the replica merger uses. K is elastic: the coordinator's
// autoscaler watches the legs' queue saturation riding the ordinary
// heartbeats, grows the group under sustained load through the same
// declarative reconcile that places any unit, and shrinks it back when
// the load passes — flushing the retired legs so the resize costs
// nothing. The demo saturates a 2-shard group (every record made
// artificially expensive), watches it scale out to 4, drops the load,
// watches it scale back in, and audits exactly-once delivery across
// both resizes.
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

// gatedRelay is a record-preserving relay whose per-record cost is a
// runtime dial — the demo's load lever.
type gatedRelay struct{ delay *atomic.Int64 }

func (gatedRelay) Name() string { return "gated-relay" }

func (g gatedRelay) Process(r *record.Record, out pipeline.Emitter) error {
	if d := g.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return out.Emit(r)
}

func main() {
	// Registry: sharded segments must be record-preserving. The per-record
	// delay is the load lever — on, each leg is compute-bound; off, the
	// relay is free.
	var delay atomic.Int64
	reg := pipeline.NewRegistry()
	reg.Register("work", func() []pipeline.Operator {
		return []pipeline.Operator{gatedRelay{delay: &delay}}
	})

	// Terminal: verifies exactly-once delivery by indexing payloads.
	terminal, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	var mu sync.Mutex
	seen := make(map[int]int)
	repairs := 0
	verify := pipeline.SinkFunc{SinkName: "verify", Fn: func(r *record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		switch r.Kind {
		case record.KindData:
			if v, err := r.Float64s(); err == nil && len(v) == 1 {
				seen[int(v[0])]++
			}
		case record.KindBadCloseScope:
			repairs++
		}
		return nil
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = pipeline.New().SetSource(terminal).SetSink(verify).Run(context.Background())
	}()

	// Control plane: one segment at 2 shards, autoscaling between 2 and 4
	// on a 0.10..0.50 saturation band. Five nodes so K=4 legs still land
	// on distinct hosts (hard spread).
	coord, err := river.NewCoordinator(river.Config{
		Pipelines: []river.PipelineSpec{{
			Segments: []river.SegmentSpec{{Name: "work", Type: "work", Shards: 2}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MinNodes:          5,
		Autoscale: river.AutoscaleConfig{
			Enabled: true, Interval: 100 * time.Millisecond,
			LowWater: 0.10, HighWater: 0.50,
			MinShards: 2, MaxShards: 4, Step: 2,
			Cooldown: time.Second, SustainTicks: 3,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()

	agents := map[string]context.CancelFunc{}
	var agentWG sync.WaitGroup
	for _, name := range []string{"host-a", "host-b", "host-c", "host-d", "host-e"} {
		agent := river.NewAgent(name, coord.Addr(), reg)
		ctx, cancel := context.WithCancel(context.Background())
		agents[name] = cancel
		agentWG.Add(1)
		go func() { defer agentWG.Done(); _ = agent.Run(ctx) }()
	}
	defer func() {
		for _, cancel := range agents {
			cancel()
		}
		agentWG.Wait()
	}()
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: sharded topology placed at K=2")
	for _, p := range coord.Status().Placements {
		fmt.Printf("  %-16s (%s) on %s at %s\n", p.Seg, p.Role, p.Node, p.Addr)
	}

	shardLegs := func() int {
		n := 0
		for _, p := range coord.Status().Placements {
			if p.Role == river.RoleShard && p.Placed {
				n++
			}
		}
		return n
	}
	waitLegs := func(k int, what string) {
		deadline := time.Now().Add(30 * time.Second)
		for shardLegs() != k {
			if time.Now().After(deadline) {
				log.Fatalf("stalled waiting for %s: %d legs", what, shardLegs())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Load: every record costs 3ms of leg time, keys spread across the
	// legs, production far above what two legs can drain.
	delay.Store(int64(3 * time.Millisecond))
	out := pipeline.NewStreamOutBatched(coord.EntryAddr(), record.DefaultBatchConfig())
	defer out.Close()
	if err := out.Consume(record.NewOpenScope(record.ScopeSession, 0)); err != nil {
		log.Fatal(err)
	}
	stop := make(chan struct{})
	sentCh := make(chan int, 1)
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				sentCh <- i
				return
			default:
			}
			r := record.NewData(record.SubtypeAudio)
			r.SourceID = uint32(1 + i%13) // the keying contract: hash by source
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Consume(r); err != nil {
				sentCh <- i
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()

	fmt.Println("phase 2: saturating the 2-shard group (3ms per record per leg)")
	waitLegs(4, "scale-out")
	fmt.Println("phase 2: autoscaler scaled the group out to K=4")

	// Drop the per-record cost: the group shrinks back to the floor, the
	// removed legs flushing their tails through the retire linger.
	delay.Store(0)
	fmt.Println("phase 3: load dropped; waiting for scale-in")
	waitLegs(2, "scale-in")
	fmt.Println("phase 3: autoscaler scaled the group back in to K=2")

	// Stop the stream and audit.
	close(stop)
	sent := <-sentCh
	if err := out.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
		log.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	deadline := time.Now().Add(30 * time.Second)
	for received() < sent {
		if time.Now().After(deadline) {
			log.Fatalf("final drain stalled: %d of %d records arrived", received(), sent)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The autoscale trail from the event stream.
	fmt.Println("\nautoscale event trail:")
	for _, e := range coord.Events().Since(0, nil) {
		switch e.Type {
		case obs.EventAutoscale:
			fmt.Printf("  seq=%-3d autoscale %-10s %s (saturation %.2f)\n", e.Seq, e.Phase, e.Detail, e.Value)
		case obs.EventDrain, obs.EventDrained:
			fmt.Printf("  seq=%-3d %-8s %s (%s)\n", e.Seq, e.Type, e.Unit, e.Detail)
		}
	}

	// Telemetry: the partitioner's spread and the collector's reorder.
	for _, n := range coord.Status().Nodes {
		for _, s := range n.Segments {
			switch s.Role {
			case river.RolePartition:
				fmt.Printf("telemetry: partitioner on %s: legs=%d leg_drops=%d records_out=%d\n",
					n.Name, s.Legs, s.LegDrops, s.RecordsOut)
			case river.RoleCollect:
				fmt.Printf("telemetry: collector on %s: legs=%d dups=%d skipped=%d untagged=%d\n",
					n.Name, s.Legs, s.Dups, s.Skipped, s.Untagged)
			}
		}
	}

	// Teardown and audit.
	out.Close()
	for _, cancel := range agents {
		cancel()
	}
	agentWG.Wait()
	agents = map[string]context.CancelFunc{}
	coord.Close()
	terminal.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	missing, duplicated := 0, 0
	for i := 0; i < sent; i++ {
		switch c := seen[i]; {
		case c == 0:
			missing++
		case c > 1:
			duplicated++
		}
	}
	fmt.Printf("\naudit: %d records sent, %d missing, %d duplicated, %d scope repairs\n",
		sent, missing, duplicated, repairs)
	if missing != 0 || duplicated != 0 || repairs != 0 {
		log.Fatal("elastic resize lost or duplicated records")
	}
	fmt.Println("both resizes were invisible downstream: every record exactly once, zero repairs")
}
