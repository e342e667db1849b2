package main

import (
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/ops"
	"repro/internal/pipeline"
)

// params are one invocation's settings.
type params struct {
	seed    int64
	seconds float64
	trace   bool
}

// workloads maps --workload names to their runners.
var workloads = map[string]func(params) (*outcome, error){
	"archive":    func(p params) (*outcome, error) { return runJob(p, newArchive) },
	"ensembles":  func(p params) (*outcome, error) { return runJob(p, newEnsembles) },
	"fleet-live": func(p params) (*outcome, error) { return runJob(p, newFleet) },
}

// setups is how many times each pass sets its cluster up; setup_s is the
// median, and the last cluster is the one measured.
const setups = 5

// job is one workload: its pre-generated inputs and reference, the
// pipelines it deploys, and the load it drives through them.
type job interface {
	// train builds a fresh classifier for a setup (the part of set-up
	// that is not cluster start); jobs without MESO do nothing.
	train() error
	// pipes returns the job's pipelines, with sinks bound to fresh
	// per-pass result state.
	pipes() []pipeSpec
	// drive runs the warm-up and then measures for seconds on c.
	drive(c *cluster, seconds float64) (*measured, error)
	// referenceRate is how fast the single-goroutine in-process
	// reference ran over the workload's inputs, in audio samples per
	// second.
	referenceRate() float64
	// setTracer makes the sink's own layer calls (MESO, change
	// detection) traced for the traced pass.
	setTracer(*tracer)
	// spheres is the trained MESO's sphere count (0 without MESO).
	spheres() int
}

// registry is the segment registry handed to the agents. With a tracer
// every operator chain is wrapped in span-recording shims; the cutters
// are kept either way for the kept-samples count.
type registry struct {
	*pipeline.Registry
	mu      sync.Mutex
	cutters []*ops.Cutter
}

func newRegistry(tr *tracer) *registry {
	reg := &registry{Registry: pipeline.NewRegistry()}
	wrap := func(chain []pipeline.Operator) []pipeline.Operator {
		if tr == nil {
			return chain
		}
		return tr.wrap(chain)
	}
	reg.Register("extract", func() []pipeline.Operator {
		chain, cutter, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			panic(err) // the default config is valid
		}
		reg.mu.Lock()
		reg.cutters = append(reg.cutters, cutter)
		reg.mu.Unlock()
		return wrap(chain)
	})
	reg.Register("spectral", func() []pipeline.Operator { return wrap(ops.SpectralOps(10)) })
	reg.Register("relay", func() []pipeline.Operator { return []pipeline.Operator{pipeline.Relay{}} })
	reg.Register("detect", func() []pipeline.Operator {
		det, err := ops.NewChangeDetect(ops.ChangeDetectConfig{})
		if err != nil {
			panic(err) // the default config is valid
		}
		return wrap([]pipeline.Operator{det})
	})
	return reg
}

// keptPct is the share of audio the cutters kept, over every cutter the
// registry built. Read it only after the cluster has stopped.
func (r *registry) keptPct() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var in, kept uint64
	for _, c := range r.cutters {
		in += c.SamplesIn()
		kept += c.SamplesKept()
	}
	if in == 0 {
		return 0
	}
	return 100 * float64(kept) / float64(in)
}

// measured is what one pass saw in its measured window.
type measured struct {
	a, b        procSnap
	wa, wb      wireSnap
	eventsA     uint64
	eventsB     uint64
	audioS      float64   // audio seconds offered (open loop) or processed (closed loop)
	samplesPerS float64   // audio samples delivered to the sinks per wall second
	lat         []float64 // result latencies, ms
	genLag      []float64 // how late the open-loop generator sent, ms
	sendNs      float64   // time inside the station's StreamOut.Consume
	sendRecs    float64
	statusUs    []float64 // Coordinator.Status durations sampled in the window
	accurate    int
	judged      int
	attempted   int
	failed      int
	units       []unitStats
	mesoNs      float64 // time inside core.Classifier at the sinks (traced passes)
	mesoPats    float64
	distEvals   float64
}

// passResult is one pass: its set-ups and its measured window.
type passResult struct {
	setupS  []float64
	trainS  []float64
	placeS  []float64
	m       *measured
	spheres int
	kept    float64
}

// pass sets the job's cluster up `setups` times, keeps the last, and
// drives it.
func pass(j job, reg *registry, seconds float64) (*passResult, error) {
	pr := &passResult{}
	var c *cluster
	for i := 0; i < setups; i++ {
		start := time.Now()
		if err := j.train(); err != nil {
			return nil, err
		}
		trained := time.Now()
		cl, err := startCluster(j.pipes(), reg.Registry)
		if err != nil {
			return nil, err
		}
		pr.setupS = append(pr.setupS, time.Since(start).Seconds())
		pr.trainS = append(pr.trainS, trained.Sub(start).Seconds())
		pr.placeS = append(pr.placeS, cl.placed.Seconds())
		if i < setups-1 {
			cl.close()
			continue
		}
		c = cl
	}
	m, err := j.drive(c, seconds)
	c.close()
	if err != nil {
		return nil, err
	}
	pr.m = m
	pr.spheres = j.spheres()
	pr.kept = reg.keptPct()
	return pr, nil
}

// runJob runs the untraced pass (end-to-end metrics) or, with --trace 1,
// an untraced and a traced pass of half the length each (per-layer
// metrics, including the tracing overhead between the two).
func runJob(p params, mk func(params) (job, error)) (*outcome, error) {
	j, err := mk(p)
	if err != nil {
		return nil, err
	}
	if !p.trace {
		pr, err := pass(j, newRegistry(nil), p.seconds)
		if err != nil {
			return nil, err
		}
		return endToEnd(pr), nil
	}
	plain, err := pass(j, newRegistry(nil), p.seconds/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	j.setTracer(tr)
	traced, err := pass(j, newRegistry(tr), p.seconds/2)
	if err != nil {
		return nil, err
	}
	return perLayer(plain, traced, tr, j.referenceRate()), nil
}

// verdict folds a measurement's result checks into an outcome.
func verdict(m *measured) *outcome {
	failed := m.failed
	if failed > m.attempted {
		failed = m.attempted
	}
	return &outcome{correct: m.attempted > 0 && failed == 0, attempted: m.attempted, failed: failed}
}

func endToEnd(pr *passResult) *outcome {
	m := pr.m
	o := verdict(m)
	w := between(m.a, m.b)
	acc := 0.0
	if m.judged > 0 {
		acc = 100 * float64(m.accurate) / float64(m.judged)
	}
	o.metrics = []metric{
		{"samples_per_s", m.samplesPerS, "1/s"},
		{"cpu_s_per_audio_h", w.cpu / (m.audioS / 3600), "s"},
		{"wire_kb_per_audio_s", (m.wb.bytes - m.wa.bytes) / 1024 / m.audioS, "KiB/s"},
		{"rss_peak_mb", peakRSSMB(), "MiB"},
		{"accuracy_pct", acc, "%"},
		{"setup_s", median(pr.setupS), "s"},
	}
	// Result latency is wall-clock time on a shared host, where CPU steal
	// moves it several-fold between runs; no bound holds, so it is printed
	// here for reading and reported as a per-layer metric of the traced run.
	p50, p99 := latency(m)
	fmt.Printf("# latency p50 %.3f ms, p99 %.3f ms over %d results\n", p50, p99, len(m.lat))
	return o
}

// latency is the p50 and p99 of a pass's result latencies.
func latency(m *measured) (p50, p99 float64) {
	lat := append([]float64(nil), m.lat...)
	return quantile(lat, 0.50), quantile(lat, 0.99)
}

// Operator groups for the CPU shares.
var (
	extractOps  = []string{"saxanomaly", "trigger", "cutter"}
	spectralOps = []string{"reslice", "welchwindow", "float2cplx", "dft", "cabs", "cutout", "paa", "rec2vect"}
	detectOps   = []string{"changedetect"}
)

// unitLayers are the per-unit names the status telemetry reports under.
var unitLayers = []string{
	"extract", "spectral",
	"ha-split", "ha-replica", "ha-merge", "ha-relay",
	"wide-partition", "wide-shard", "wide-collect",
}

// layerNames lists every per-layer metric, with its unit, in print order.
func layerNames() []metric {
	var out []metric
	for _, group := range [][]string{extractOps, spectralOps, detectOps} {
		for _, op := range group {
			out = append(out, metric{name: "ops." + op + ".self_us_per_rec", unit: "us"})
		}
	}
	out = append(out,
		metric{name: "ops.cutter.kept_pct", unit: "%"},
		metric{name: "ops.extract.cpu_share_pct", unit: "%"},
		metric{name: "ops.spectral.cpu_share_pct", unit: "%"},
		metric{name: "ops.detect.cpu_share_pct", unit: "%"},
		metric{name: "meso.cpu_share_pct", unit: "%"},
		metric{name: "other.cpu_share_pct", unit: "%"},
		metric{name: "meso.classify_us_per_pattern", unit: "us"},
		metric{name: "meso.dist_evals_per_pattern", unit: "count"},
		metric{name: "meso.train_s", unit: "s"},
		metric{name: "meso.spheres", unit: "count"},
		metric{name: "core.reference_samples_per_s", unit: "1/s"},
		metric{name: "latency.p50_ms", unit: "ms"},
		metric{name: "latency.p99_ms", unit: "ms"},
		metric{name: "latency.results", unit: "count"},
		metric{name: "pipeline.station.send_us_per_rec", unit: "us"},
	)
	for _, u := range unitLayers {
		out = append(out,
			metric{name: "pipeline." + u + ".queue_peak_pct", unit: "%"},
			metric{name: "pipeline." + u + ".lat_p99_ms", unit: "ms"})
	}
	return append(out,
		metric{name: "record.bytes_per_rec", unit: "B"},
		metric{name: "record.recs_per_batch", unit: "count"},
		metric{name: "record.corrupt_batches", unit: "count"},
		metric{name: "replica.splitter.leg_drops", unit: "count"},
		metric{name: "replica.merger.dups", unit: "count"},
		metric{name: "replica.merger.skipped", unit: "count"},
		metric{name: "replica.merger.untagged", unit: "count"},
		metric{name: "replica.merger.useful_pct", unit: "%"},
		metric{name: "shard.partition.skew", unit: "ratio"},
		metric{name: "shard.collector.skipped", unit: "count"},
		metric{name: "shard.collector.untagged", unit: "count"},
		metric{name: "river.place_ms", unit: "ms"},
		metric{name: "river.status_us", unit: "us"},
		metric{name: "river.events", unit: "count"},
		metric{name: "runtime.alloc_mb_per_audio_s", unit: "MiB"},
		metric{name: "runtime.gc_cpu_pct", unit: "%"},
		metric{name: "bench.gen_lag_p99_ms", unit: "ms"},
		metric{name: "bench.trace_overhead_pct", unit: "%"},
	)
}

func perLayer(plain, traced *passResult, tr *tracer, refRate float64) *outcome {
	m := traced.m
	o := verdict(m)
	// Both passes are checked against the reference.
	po := verdict(plain.m)
	o.attempted += po.attempted
	o.failed += po.failed
	o.correct = o.correct && po.correct

	w := between(m.a, m.b)
	cpuNs := w.cpu * 1e9
	spans := tr.spans()
	o.spans, o.spanOps = spans, tr.ops
	tot := tr.aggregate(spans, tr.since(m.a.at), tr.since(m.b.at))
	v := make(map[string]float64)
	share := func(group []string) float64 {
		var ns float64
		for _, op := range group {
			ns += float64(tot[op].selfNs)
		}
		return 100 * ns / cpuNs
	}
	for _, group := range [][]string{extractOps, spectralOps, detectOps} {
		for _, op := range group {
			if t := tot[op]; t.calls > 0 {
				v["ops."+op+".self_us_per_rec"] = float64(t.selfNs) / float64(t.calls) / 1e3
			}
		}
	}
	v["ops.cutter.kept_pct"] = traced.kept
	v["ops.extract.cpu_share_pct"] = share(extractOps)
	v["ops.spectral.cpu_share_pct"] = share(spectralOps)
	v["ops.detect.cpu_share_pct"] = share(detectOps)
	v["meso.cpu_share_pct"] = 100 * m.mesoNs / cpuNs
	named := v["ops.extract.cpu_share_pct"] + v["ops.spectral.cpu_share_pct"] +
		v["ops.detect.cpu_share_pct"] + v["meso.cpu_share_pct"]
	v["other.cpu_share_pct"] = 100 - named
	// Self times are wall-clock spans; if the host descheduled a traced
	// call, they overstate CPU and the residual goes negative.
	fmt.Printf("# cpu attributed to named layers: %.1f%% of process CPU\n", named)
	if named > 110 {
		fmt.Fprintf(os.Stderr, "perfbench: named layers account for %.1f%% of process CPU (> 110%%): spans include descheduled time\n", named)
	}
	if m.mesoPats > 0 {
		v["meso.classify_us_per_pattern"] = m.mesoNs / m.mesoPats / 1e3
		v["meso.dist_evals_per_pattern"] = m.distEvals / m.mesoPats
	}
	v["meso.train_s"] = median(traced.trainS)
	v["meso.spheres"] = float64(traced.spheres)
	v["core.reference_samples_per_s"] = refRate
	if m.sendRecs > 0 {
		v["pipeline.station.send_us_per_rec"] = m.sendNs / m.sendRecs / 1e3
	}
	for _, u := range m.units {
		if u.QueueCap > 0 {
			v["pipeline."+u.layer+".queue_peak_pct"] = math.Max(v["pipeline."+u.layer+".queue_peak_pct"],
				100*float64(u.QueuePeak)/float64(u.QueueCap))
		}
		v["pipeline."+u.layer+".lat_p99_ms"] = math.Max(v["pipeline."+u.layer+".lat_p99_ms"], float64(u.LatP99Us)/1e3)
	}
	if d := m.wb.recs - m.wa.recs; d > 0 {
		v["record.bytes_per_rec"] = (m.wb.bytes - m.wa.bytes) / d
		v["record.recs_per_batch"] = d / (m.wb.batches - m.wa.batches)
	}
	var shardRecs []float64
	var mergeOut, mergeIn float64
	for _, u := range m.units {
		v["record.corrupt_batches"] += float64(u.Corrupt)
		switch {
		case strings.HasSuffix(u.layer, "split"):
			v["replica.splitter.leg_drops"] += float64(u.LegDrops)
		case strings.HasSuffix(u.layer, "merge"):
			v["replica.merger.dups"] += float64(u.Dups)
			v["replica.merger.skipped"] += float64(u.Skipped)
			v["replica.merger.untagged"] += float64(u.Untagged)
			mergeOut += float64(u.Emitted)
			mergeIn += float64(u.Emitted + u.Dups + u.Untagged)
		case strings.HasSuffix(u.layer, "shard"):
			shardRecs = append(shardRecs, float64(u.Processed))
		case strings.HasSuffix(u.layer, "collect"):
			v["shard.collector.skipped"] += float64(u.Skipped)
			v["shard.collector.untagged"] += float64(u.Untagged)
		}
	}
	if mergeIn > 0 {
		v["replica.merger.useful_pct"] = 100 * mergeOut / mergeIn
	}
	if len(shardRecs) > 0 {
		var sum, max float64
		for _, r := range shardRecs {
			sum += r
			max = math.Max(max, r)
		}
		if sum > 0 {
			v["shard.partition.skew"] = max / (sum / float64(len(shardRecs)))
		}
	}
	v["river.place_ms"] = 1e3 * median(traced.placeS)
	v["river.status_us"] = median(m.statusUs)
	v["river.events"] = float64(m.eventsB - m.eventsA)
	v["runtime.alloc_mb_per_audio_s"] = w.allocMB / m.audioS
	v["runtime.gc_cpu_pct"] = w.gcPct
	// Latency comes from the untraced pass: the traced one adds the spans'
	// cost to every result.
	v["latency.p50_ms"], v["latency.p99_ms"] = latency(plain.m)
	v["latency.results"] = float64(len(plain.m.lat))
	v["bench.gen_lag_p99_ms"] = quantile(append([]float64(nil), m.genLag...), 0.99)
	pw := between(plain.m.a, plain.m.b)
	plainCPU := pw.cpu / plain.m.audioS
	v["bench.trace_overhead_pct"] = 100 * (w.cpu/m.audioS - plainCPU) / plainCPU

	for _, l := range layerNames() {
		l.value = v[l.name]
		o.metrics = append(o.metrics, l)
	}
	return o
}
