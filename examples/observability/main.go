// Observability: demonstrates the self-monitoring loop end-to-end — a
// 3-replica relay pipeline under sustained load, with the coordinator
// serving Prometheus metrics and recording every control-plane
// transition as a typed event. One replica node is artificially slowed
// mid-stream: the coordinator's monitor (streaming z-score detectors
// over the telemetry already carried in heartbeats) flags the degrading
// node as an "anomaly" event while it is still alive — before failure
// detection would notice — and the /metrics scrape shows its backlog
// and per-node latency quantiles. The remediation policy then *acts* on
// the anomaly: it pre-emptively drains the flagged node (a zero-repair
// boundary splice), narrating every decision as a typed "remediation"
// event. By the time the degraded node is killed it hosts nothing, so
// its death is a non-event — no failover, no repair. The event log
// replays the whole history in order: register, place, anomaly,
// remediation, drain, drained. The sink audits that every record still
// arrived exactly once.
//
// The same stream is available against a real deployment via
// `dynriver events` (and `dynriver coord -react=drain -metrics-addr`
// for the live loop); examples/anomaly shows the detector family
// offline.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
)

// slowRelay is a record-preserving relay with a settable per-record
// delay — the knob that degrades one node on command.
type slowRelay struct{ delay *atomic.Int64 }

func (slowRelay) Name() string { return "relay" }

func (s slowRelay) Process(r *record.Record, out pipeline.Emitter) error {
	if d := s.delay.Load(); d > 0 {
		time.Sleep(time.Duration(d))
	}
	return out.Emit(r)
}

func waitUntil(what string, timeout time.Duration, cond func() bool) {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			log.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(25 * time.Millisecond)
	}
}

// scrapeValue pulls one series' value out of a Prometheus text scrape.
func scrapeValue(scrape, series string) (string, bool) {
	for _, line := range strings.Split(scrape, "\n") {
		if strings.HasPrefix(line, series+" ") {
			return strings.TrimPrefix(line, series+" "), true
		}
	}
	return "", false
}

func eventLine(e obs.Event) string {
	parts := []string{}
	if e.Phase != "" {
		parts = append(parts, "phase="+e.Phase)
	}
	if e.Unit != "" {
		parts = append(parts, "unit="+e.Unit)
	}
	if e.Node != "" {
		parts = append(parts, "node="+e.Node)
	}
	if e.Metric != "" {
		// Metric/Value/Score already say everything Detail repeats.
		phase := ""
		if e.Phase != "" {
			phase = " phase=" + e.Phase
		}
		return fmt.Sprintf("%4d %-10s%s node=%s %s=%g z=%.1f", e.Seq, e.Type, phase, e.Node, e.Metric, e.Value, e.Score)
	}
	if e.Detail != "" {
		parts = append(parts, fmt.Sprintf("(%s)", e.Detail))
	}
	return fmt.Sprintf("%4d %-10s %s", e.Seq, e.Type, strings.Join(parts, " "))
}

func main() {
	// Terminal: audits exactly-once delivery by indexing payloads.
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
	received := func() int {
		mu.Lock()
		defer mu.Unlock()
		return len(seen)
	}
	var termWG sync.WaitGroup
	termWG.Add(1)
	go func() {
		defer termWG.Done()
		_ = pipeline.New().SetSource(terminal).SetSink(verify).Run(context.Background())
	}()

	// Control plane with the full observability surface: a metrics
	// endpoint on a loopback port and the monitor sampling every 150ms.
	// The cadence is deliberately slow relative to the queue's fill rate
	// so a saturating node shows up as a level shift the z-score flags on
	// its first sample, not a ramp the EWMA baseline absorbs.
	coord, err := river.NewCoordinator(river.Config{
		Pipelines: []river.PipelineSpec{{
			Segments: []river.SegmentSpec{{Name: "relay", Type: "relay", Replicas: 3}},
			SinkAddr: terminal.Addr(),
		}},
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		MinNodes:          4,
		DrainSettle:       150 * time.Millisecond,
		MetricsAddr:       "127.0.0.1:0",
		Monitor: river.MonitorConfig{
			Interval:  150 * time.Millisecond,
			Alpha:     0.1,
			Warmup:    8,
			Threshold: 6,
			Cooldown:  time.Minute,
		},
		// The acted-on half: anomalies trigger a pre-emptive drain of
		// the flagged node. MaxConcurrent 2 keeps a spurious blip on a
		// neighbor from starving the real victim's drain.
		Remediate: river.RemediateConfig{
			Mode:          river.RemediateDrain,
			Cooldown:      time.Minute,
			MaxConcurrent: 2,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	fmt.Printf("phase 1: metrics on http://%s/metrics (pprof on /debug/pprof)\n", coord.MetricsAddr())

	// Four nodes, each hosting a throttleable relay; only the eventual
	// victim's delay is ever set.
	type liveAgent struct {
		cancel context.CancelFunc
		done   chan error
		delay  *atomic.Int64
	}
	agents := map[string]*liveAgent{}
	for _, name := range []string{"host-a", "host-b", "host-c", "host-d"} {
		delay := &atomic.Int64{}
		reg := pipeline.NewRegistry()
		reg.Register("relay", func() []pipeline.Operator {
			return []pipeline.Operator{slowRelay{delay: delay}}
		})
		agent := river.NewAgent(name, coord.Addr(), reg)
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- agent.Run(ctx) }()
		agents[name] = &liveAgent{cancel: cancel, done: done, delay: delay}
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer wcancel()
	if err := coord.WaitPlaced(wctx); err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: replicated topology placed, event log recording")

	// Sustained numbered load through the splitter entry.
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
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Consume(r); err != nil {
				log.Fatalf("load: %v", err)
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	waitUntil("records flowing", 10*time.Second, func() bool { return received() >= 300 })
	time.Sleep(1200 * time.Millisecond) // let the monitor baselines warm on healthy traffic

	// Phase 2: degrade a replica-only node (replica legs are drainable;
	// splitter/merger endpoints are not) and wait for the monitor to
	// flag it. Failure detection must NOT have fired — the whole point is
	// catching the node while it is still alive.
	endpointNodes := map[string]bool{}
	for _, p := range coord.Status().Placements {
		if p.Role == river.RoleSplit || p.Role == river.RoleMerge {
			endpointNodes[p.Node] = true
		}
	}
	var victim, victimUnit string
	for _, p := range coord.Status().Placements {
		if p.Role == river.RoleReplica && p.Placed && !endpointNodes[p.Node] {
			victim, victimUnit = p.Node, p.Seg
			break
		}
	}
	if victim == "" {
		log.Fatal("no node hosts only a replica")
	}
	fmt.Printf("phase 2: slowing %s (hosts %s) by 50ms/record under load\n", victim, victimUnit)
	throttledAt := time.Now()
	agents[victim].delay.Store(int64(50 * time.Millisecond))

	var anomaly obs.Event
	waitUntil("anomaly event for the slowed node", 15*time.Second, func() bool {
		events, err := river.FetchEvents(coord.Addr(), "", 0, 5*time.Second)
		if err != nil {
			return false
		}
		for _, e := range events {
			if e.Type == obs.EventFailover {
				log.Fatalf("failure detection beat the monitor: %+v", e)
			}
			if e.Type == obs.EventAnomaly && e.Node == victim && e.TimeMS >= throttledAt.UnixMilli() {
				anomaly = e
				return true
			}
		}
		return false
	})
	fmt.Printf("phase 2: anomaly flagged %.0fms after throttling: node=%s %s=%g (z-score %.1f)\n",
		time.Since(throttledAt).Seconds()*1000, anomaly.Node, anomaly.Metric, anomaly.Value, anomaly.Score)

	// The metrics endpoint shows the same backlog to any scraper.
	resp, err := http.Get("http://" + coord.MetricsAddr() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	// (e2e quantiles need a probe source — `station -probes` — so only
	// the per-unit latency gauge is live in this example.)
	for _, gauge := range []string{
		"dynriver_node_queue_depth", "dynriver_node_queue_peak",
		"dynriver_node_latency_p99_seconds",
	} {
		series := fmt.Sprintf("%s{node=%q}", gauge, victim)
		if v, ok := scrapeValue(string(body), series); ok {
			fmt.Printf("phase 2: /metrics %s %s\n", series, v)
		}
	}

	// Phase 3: the remediation policy acts on the anomaly — triggered,
	// started, then a zero-repair drain of the victim's unit. Failure
	// detection must stay silent throughout: the node is slow, not dead.
	var remStarted, drainedSeq uint64
	waitUntil("remediation drain of "+victim, 20*time.Second, func() bool {
		events, err := river.FetchEvents(coord.Addr(), "", 0, 5*time.Second)
		if err != nil {
			return false
		}
		for _, e := range events {
			if e.Type == obs.EventFailover {
				log.Fatalf("failure detection fired during remediation: %+v", e)
			}
			switch {
			case e.Type == obs.EventRemediation && e.Phase == obs.RemPhaseStarted && e.Node == victim:
				remStarted = e.Seq
			case e.Type == obs.EventDrained && e.Unit == victimUnit:
				drainedSeq = e.Seq
			}
		}
		return remStarted != 0 && drainedSeq != 0
	})
	fmt.Printf("phase 3: remediation drained %s off %s %.0fms after throttling\n",
		victimUnit, victim, time.Since(throttledAt).Seconds()*1000)
	waitUntil("victim idle, 3 replicas elsewhere", 10*time.Second, func() bool {
		alive := 0
		for _, p := range coord.Status().Placements {
			if p.Node == victim {
				return false
			}
			if p.Role == river.RoleReplica && p.Placed {
				alive++
			}
		}
		return alive == 3
	})

	// Phase 4: the degraded node dies — hosting nothing. A pre-emptively
	// drained node's death is a non-event: no failover, no repair.
	fmt.Printf("phase 4: killing %s (now idle)\n", victim)
	agents[victim].cancel()
	<-agents[victim].done
	delete(agents, victim)
	post := received()
	waitUntil("records flowing post-kill", 10*time.Second, func() bool { return received() >= post+300 })

	// Drain the load and audit exactly-once delivery.
	close(stop)
	sent := <-sentCh
	if err := out.Consume(record.NewCloseScope(record.ScopeSession, 0)); err != nil {
		log.Fatal(err)
	}
	if err := out.Flush(); err != nil {
		log.Fatal(err)
	}
	waitUntil("sink drained", 10*time.Second, func() bool { return received() >= sent })

	// Replay the recorded history — what `dynriver events` prints.
	events, err := river.FetchEvents(coord.Addr(), "", 0, 5*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nevent log replay:")
	for _, e := range events {
		fmt.Println("  " + eventLine(e))
		// No node holding units ever died, so any failover means the
		// pre-emptive drain failed at its one job.
		if e.Type == obs.EventFailover {
			log.Fatalf("unexpected failover in history: %+v", e)
		}
	}
	if anomaly.Seq >= remStarted || remStarted >= drainedSeq {
		log.Fatalf("history out of order: anomaly=%d remediation-started=%d drained=%d",
			anomaly.Seq, remStarted, drainedSeq)
	}

	mu.Lock()
	missing, duplicated := 0, 0
	for i := 0; i < sent; i++ {
		switch seen[i] {
		case 0:
			missing++
		case 1:
		default:
			duplicated++
		}
	}
	rep := repairs
	mu.Unlock()
	fmt.Printf("\naudit: sent=%d missing=%d duplicated=%d repairs=%d\n", sent, missing, duplicated, rep)
	if missing != 0 || duplicated != 0 || rep != 0 {
		log.Fatal("exactly-once audit failed")
	}

	for _, a := range agents {
		a.cancel()
		<-a.done
	}
	coord.Close()
	fmt.Println("\nobservability: the monitor flagged the degrading node, remediation " +
		"drained it while still alive, and its death cost nothing — the event log " +
		"told the whole story in order")
}
