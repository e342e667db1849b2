// Recomposition: demonstrates Dynamic River's headline systems feature —
// surviving the loss of a host that is processing a stream mid-clip. Where
// the paper (and earlier versions of this example) wired the recovery by
// hand, here the control plane automates it: a coordinator owns the
// topology, two node agents offer to host segments, and when the node
// running the extraction segment is killed the coordinator re-places the
// segment on the survivor and redirects the stream. The terminal stage
// validates every record against the scope rules and reports the
// BadCloseScope repairs that keep the stream meaningful.
//
// The final phase demonstrates the inverse failure: the coordinator
// itself is killed and restarted over its journaled state directory. The
// data plane never notices — the agents keep their segments running
// detached, a full clip streams through while no coordinator exists, and
// the restarted coordinator (one epoch higher) adopts the agents'
// re-registered inventories instead of re-placing anything: zero scope
// repairs, zero moved segments.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/synth"
)

func main() {
	// Registry of segment types any node can instantiate.
	reg := pipeline.NewRegistry()
	reg.Register("extract", func() []pipeline.Operator {
		opsList, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			panic(err)
		}
		return opsList
	})

	// Terminal stage: validates scope structure of everything it sees.
	terminal, err := pipeline.NewStreamIn("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	tracker := record.NewTracker()
	var mu sync.Mutex
	var ensembles, badCloses int
	validate := pipeline.SinkFunc{SinkName: "validate", Fn: func(r *record.Record) error {
		mu.Lock()
		defer mu.Unlock()
		if err := tracker.Observe(r); err != nil {
			return fmt.Errorf("scope violation: %w", err)
		}
		switch {
		case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeEnsemble:
			ensembles++
		case r.Kind == record.KindBadCloseScope:
			badCloses++
			fmt.Printf("terminal: repaired %s scope after upstream loss\n", r.ScopeType)
		}
		return nil
	}}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p := pipeline.New().SetSource(terminal).SetSink(validate)
		if err := p.Run(context.Background()); err != nil {
			log.Println("terminal:", err)
		}
	}()

	// Control plane: the coordinator owns the topology station -> extract
	// -> terminal; the entry channel tells the station where to stream.
	// The state directory makes it durable — phase 4 kills and restarts
	// it over the same journal.
	stateDir, err := os.MkdirTemp("", "dynriver-state-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(stateDir)
	entryCh := make(chan string, 8)
	coordConfig := func(listen string) river.Config {
		return river.Config{
			ListenAddr: listen,
			Pipelines: []river.PipelineSpec{{
				Segments: []river.SegmentSpec{{Name: "extract", Type: "extract"}},
				SinkAddr: terminal.Addr(),
			}},
			HeartbeatInterval: 100 * time.Millisecond,
			HeartbeatTimeout:  500 * time.Millisecond,
			OnEntryChange:     func(a string) { entryCh <- a },
			StateDir:          stateDir,
			RestartGrace:      3 * time.Second,
			Logf:              log.Printf,
		}
	}
	coord, err := river.NewCoordinator(coordConfig("127.0.0.1:0"))
	if err != nil {
		log.Fatal(err)
	}
	defer func() { _ = coord.Close() }()
	coordAddr := coord.Addr()

	// Two node agents register; the coordinator places the segment on one.
	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"host-a", "host-b"} {
		agent := river.NewAgent(name, coordAddr, reg)
		agent.ReconnectMin = 50 * time.Millisecond
		agent.ReconnectMax = 500 * time.Millisecond
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- agent.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		log.Fatal(err)
	}
	placed := coord.Status().Placements[0]
	fmt.Printf("phase 1: coordinator placed segment %q on %s at %s\n", placed.Seg, placed.Node, placed.Addr)

	// Station: a batch-framed streamout that follows the coordinator's
	// entry address. Batching coalesces the clip's records into one
	// network write per batch; the forced flush on redirect bounds what a
	// failover can cut off to a single batch.
	upstream := pipeline.NewStreamOutBatched(<-entryCh, record.DefaultBatchConfig())
	defer upstream.Close()
	followerCtx, stopFollower := context.WithCancel(context.Background())
	defer stopFollower()
	go func() {
		for {
			select {
			case a := <-entryCh:
				upstream.Redirect(a)
			case <-followerCtx.Done():
				return
			}
		}
	}()

	station := synth.NewStation("kbs-01", 11, synth.ClipConfig{Seconds: 8, Events: 2})
	sendClip := func() {
		clip, id, err := station.NextClip()
		if err != nil {
			log.Fatal(err)
		}
		c := ops.Clip{ID: id, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
		feed := pipeline.EmitterFunc(func(r *record.Record) error { return upstream.Consume(r) })
		if err := ops.EmitClip(feed, &c); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("station: sent clip %s\n", id)
	}
	sendClip()
	time.Sleep(300 * time.Millisecond)

	// Phase 2: kill the hosting node mid-clip — stream part of a clip so
	// scopes are open end to end, then stop the node abruptly. The
	// coordinator detects the death, re-places the segment on the
	// survivor and redirects the station's stream; the terminal repairs
	// the dangling scopes.
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(map[string]string{
		record.CtxSampleRate: "24576",
		record.CtxClipID:     "doomed",
	})
	if err := upstream.Consume(open); err != nil {
		log.Fatal(err)
	}
	data := record.NewData(record.SubtypeAudio)
	data.SetFloat64s(make([]float64, ops.RecordSamples))
	if err := upstream.Consume(data); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	victim := coord.Status().Placements[0].Node
	fmt.Printf("phase 2: killing %s mid-clip\n", victim)
	killedAt := time.Now()
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)

	// Wait for the coordinator to heal the pipeline.
	deadline := time.Now().Add(10 * time.Second)
	for {
		p := coord.Status().Placements[0]
		if p.Placed && p.Node != victim {
			fmt.Printf("phase 2: coordinator re-placed segment on %s at %s (%.0fms after kill)\n",
				p.Node, p.Addr, time.Since(killedAt).Seconds()*1000)
			break
		}
		if time.Now().After(deadline) {
			log.Fatal("coordinator did not re-place the segment")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Phase 3: finish the doomed clip (the new instance discards its
	// stray tail) and stream one more full clip through the healed
	// pipeline.
	if err := upstream.Consume(record.NewCloseScope(record.ScopeClip, 0)); err != nil {
		log.Fatal(err)
	}
	sendClip()
	time.Sleep(500 * time.Millisecond)

	// Phase 4: kill the coordinator itself and restart it over the same
	// state directory. The surviving agent keeps its segment running
	// detached — a full clip streams through while no coordinator exists
	// — and the restarted coordinator adopts the agent's re-registered
	// inventory: same node, same address, zero repairs, zero moves.
	placedBefore := coord.Status().Placements[0]
	mu.Lock()
	repairsBefore := badCloses
	mu.Unlock()
	fmt.Printf("phase 4: killing the coordinator (segment %q stays on %s at %s)\n",
		placedBefore.Seg, placedBefore.Node, placedBefore.Addr)
	if err := coord.Close(); err != nil {
		log.Fatal(err)
	}
	sendClip() // the data plane flows with no coordinator at all
	time.Sleep(300 * time.Millisecond)

	coord2, err := river.NewCoordinator(coordConfig(coordAddr))
	if err != nil {
		log.Fatal(err)
	}
	defer coord2.Close()
	adoptDeadline := time.Now().Add(10 * time.Second)
	for {
		st := coord2.Status()
		if len(st.Nodes) == 1 && st.Placements[0].Placed {
			break
		}
		if time.Now().After(adoptDeadline) {
			log.Fatal("restarted coordinator did not adopt the surviving agent")
		}
		time.Sleep(20 * time.Millisecond)
	}
	placedAfter := coord2.Status().Placements[0]
	if placedAfter.Node != placedBefore.Node || placedAfter.Addr != placedBefore.Addr {
		log.Fatalf("segment moved across the restart: %s@%s -> %s@%s (re-placed, not adopted)",
			placedBefore.Node, placedBefore.Addr, placedAfter.Node, placedAfter.Addr)
	}
	mu.Lock()
	repairsDuringRestart := badCloses - repairsBefore
	mu.Unlock()
	if repairsDuringRestart != 0 {
		log.Fatalf("%d scope repairs during the coordinator bounce; the data plane must not notice", repairsDuringRestart)
	}
	fmt.Printf("phase 4: coordinator restarted as epoch %d and adopted %s on %s — no repairs, no moves\n",
		coord2.Epoch(), placedAfter.Seg, placedAfter.Node)
	sendClip()
	time.Sleep(500 * time.Millisecond)

	// The survivor's heartbeats carry the flow-control telemetry the
	// load-aware placer feeds on; show what the healed segment reported.
	for _, n := range coord2.Status().Nodes {
		for _, s := range n.Segments {
			fmt.Printf("telemetry: %s on %s processed=%d emitted=%d lag=%d queue=%d/%d out: records=%d batches=%d bytes=%d\n",
				s.Name, n.Name, s.Processed, s.Emitted, s.LagValue(), s.QueueDepth, s.QueueCap,
				s.RecordsOut, s.BatchesOut, s.BytesOut)
		}
	}
	fmt.Printf("station transport: %d records in %d batches (%d bytes)\n",
		upstream.RecordsOut(), upstream.BatchesOut(), upstream.BytesOut())

	// Teardown: stop the station, the surviving node, the coordinator and
	// the terminal, then report.
	upstream.Close()
	stopFollower()
	for _, a := range agents {
		a.cancel()
		<-a.done
	}
	coord2.Close()
	terminal.Close()
	wg.Wait()

	mu.Lock()
	defer mu.Unlock()
	fmt.Printf("\nterminal survived: %d ensembles delivered, %d scope repairs, 0 scope violations\n",
		ensembles, badCloses)
	if tracker.Depth() != 0 {
		log.Fatalf("stream ended with %d scopes open", tracker.Depth())
	}
	if badCloses == 0 {
		log.Fatal("expected at least one scope repair from the killed node")
	}
	if ensembles == 0 {
		log.Fatal("expected complete ensembles through the recomposed pipeline")
	}
}
