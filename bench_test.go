// Package repro's root benchmark harness regenerates every table and
// figure of the paper's evaluation (see DESIGN.md §4 for the experiment
// index) and measures the ablations called out in DESIGN.md §5. Shape
// metrics (accuracy, reduction) are attached to the benchmark output via
// ReportMetric so `go test -bench` doubles as the reproduction run:
//
//	go test -bench=Table -benchmem       # Tables 1-3
//	go test -bench=Fig -benchmem         # Figures 2-6
//	go test -bench=Ablation -benchmem    # design-choice sweeps
//
// Benchmarks run at a reduced dataset scale so the suite completes in
// minutes; cmd/experiments reproduces the full protocol.
package repro

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dsp"
	"repro/internal/eval"
	"repro/internal/experiments"
	"repro/internal/meso"
	"repro/internal/obs"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/replica"
	"repro/internal/shard"
	"repro/internal/synth"
	"repro/internal/timeseries"
)

// benchCfg is the scaled-down experiment configuration shared by the
// table benchmarks.
func benchCfg() experiments.Config {
	return experiments.Config{Scale: 0.05, LOOReps: 1, ResubReps: 1, MaxFolds: 20, Seed: 1, Clips: 2}
}

// BenchmarkTable1DatasetBuild regenerates the Table 1 census (dataset
// synthesis + featurization).
func BenchmarkTable1DatasetBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		census, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(census) != 10 {
			b.Fatalf("census has %d species", len(census))
		}
	}
}

// table2Bench runs one Table 2 cell.
func table2Bench(b *testing.B, dataset, protocol string) {
	b.Helper()
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.Dataset == dataset && r.Protocol == protocol {
				acc = r.Result.MeanAccuracy
			}
		}
	}
	b.ReportMetric(acc*100, "accuracy%")
}

// The four Table 2 data sets under leave-one-out. Resubstitution rows are
// produced by the same call; benchmarked separately below so regressions
// localize.
func BenchmarkTable2PAAEnsembleLOO(b *testing.B) { table2Bench(b, "PAA Ensemble", "Leave-one-out") }

func BenchmarkTable2PAAEnsembleResub(b *testing.B) {
	table2Bench(b, "PAA Ensemble", "Resubstitution")
}

// BenchmarkTable2AllRows regenerates the complete table.
func BenchmarkTable2AllRows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 8 {
			b.Fatalf("table 2 has %d rows, want 8", len(rows))
		}
	}
}

// BenchmarkTable3Confusion regenerates the confusion matrix.
func BenchmarkTable3Confusion(b *testing.B) {
	b.ReportAllocs()
	var acc float64
	for i := 0; i < b.N; i++ {
		m, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		acc = m.Accuracy()
	}
	b.ReportMetric(acc*100, "accuracy%")
}

// BenchmarkFig2Spectrogram renders the Figure 2 spectrogram of a 10 s
// clip.
func BenchmarkFig2Spectrogram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sg, err := dsp.ComputeSpectrogram(clip.Samples, dsp.SpectrogramConfig{
			SampleRate: clip.SampleRate,
			FrameLen:   1024,
			Hop:        1024,
		})
		if err != nil {
			b.Fatal(err)
		}
		_ = sg.ASCII(96, 16)
	}
}

// BenchmarkFig3PAASpectrogram adds the per-column PAA reduction.
func BenchmarkFig3PAASpectrogram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 3})
	if err != nil {
		b.Fatal(err)
	}
	sg, err := dsp.ComputeSpectrogram(clip.Samples, dsp.SpectrogramConfig{
		SampleRate: clip.SampleRate,
		FrameLen:   1024,
		Hop:        1024,
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = experiments.PAASpectrogram(sg, 10)
	}
}

// BenchmarkFig4SAXConversion benchmarks the PAA->SAX example conversion.
func BenchmarkFig4SAXConversion(b *testing.B) {
	series := make([]float64, 1024)
	rng := rand.New(rand.NewSource(2))
	for i := range series {
		series[i] = rng.NormFloat64()
	}
	sax, err := timeseries.NewSAX(5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sax.Word(series, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5Topology composes the full Figure 5 pipeline.
func BenchmarkFig5Topology(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := experiments.Figure5Pipeline()
		if p.Topology() == "" {
			b.Fatal("empty topology")
		}
	}
}

// BenchmarkFig6Extraction runs the trigger/ensemble extraction of Figure 6
// over one 10 s clip and reports the reduction.
func BenchmarkFig6Extraction(b *testing.B) {
	b.ReportAllocs()
	var red float64
	for i := 0; i < b.N; i++ {
		fig, err := experiments.Figure6(experiments.Config{Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		red = fig.Reduction
	}
	b.ReportMetric(red*100, "reduction%")
}

// BenchmarkDataReduction measures the headline ~80% data reduction over
// synthetic 30 s station clips (paper §4: 80.6%).
func BenchmarkDataReduction(b *testing.B) {
	b.ReportAllocs()
	var red float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Reduction(experiments.Config{Seed: 1, Clips: 2})
		if err != nil {
			b.Fatal(err)
		}
		red = r.Reduction
	}
	b.ReportMetric(red*100, "reduction%")
}

// streamOutBench measures streamout transport throughput over real TCP:
// records with 64-byte PCM payloads (32 samples, the station record
// granularity scaled down) are pushed through a StreamOut framed by the
// given policy into a decoding receiver. The receiver decodes every record
// with the ordinary Reader, so the numbers include full wire framing on
// both sides, and reports records/sec alongside ns/op.
func streamOutBench(b *testing.B, policy record.BatchConfig) {
	b.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			// The receiver decodes into pooled records and releases each
			// one — the steady-state receive discipline of a hosted
			// streamin.
			rd := record.NewReaderSize(conn, record.DefaultMaxBatchBytes)
			rd.SetPooled(true)
			for {
				rec, err := rd.Read()
				if err != nil {
					break
				}
				record.Release(rec)
			}
			conn.Close()
		}
	}()

	out := pipeline.NewStreamOutBatched(ln.Addr().String(), policy)
	samples := make([]int16, 32) // 64-byte PCM payload
	for i := range samples {
		samples[i] = int16(i * 256)
	}
	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(samples)
	b.SetBytes(frameLen(r))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Seq = uint64(i)
		if err := out.Consume(r); err != nil {
			b.Fatal(err)
		}
	}
	if err := out.Flush(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	out.Close()
	ln.Close()
	<-drained
}

// frameLen is the encoded size of r travelling alone in one batch frame,
// the per-record wire cost the transport benchmarks report as bytes/op.
func frameLen(r *record.Record) int64 { return int64(len(record.AppendBatchWire(nil, r))) }

// BenchmarkStreamOutThroughput contrasts the per-record baseline (one
// network write, frame and CRC per record) against batched framing on the
// streamout hot path. The batch variants are the headline transport win:
// one syscall, one frame header and one CRC carry a whole batch.
func BenchmarkStreamOutThroughput(b *testing.B) {
	b.Run("per-record", func(b *testing.B) {
		streamOutBench(b, record.PerRecordConfig())
	})
	b.Run("batch-64", func(b *testing.B) {
		streamOutBench(b, record.DefaultBatchConfig())
	})
	b.Run("batch-256", func(b *testing.B) {
		cfg := record.DefaultBatchConfig()
		cfg.MaxRecords = 256
		streamOutBench(b, cfg)
	})
}

// BenchmarkMergerDedupThroughput measures the replication merger's fan-in
// hot path over real TCP: three legs concurrently deliver the same tagged
// record stream (batch-framed, 64-byte PCM payloads) and the merger
// deduplicates them back to exactly-once output. ns/op is per unique
// record delivered; records/sec counts the deduped output rate, so the
// number is directly comparable to the streamout throughput benchmark one
// hop upstream of it.
func BenchmarkMergerDedupThroughput(b *testing.B) {
	const legs = 3
	m, err := replica.NewMerger(replica.MergerConfig{Group: "bench", ListenAddr: "127.0.0.1:0", Pooled: true})
	if err != nil {
		b.Fatal(err)
	}
	var emitted atomic.Uint64
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		emitted.Add(1)
		record.Release(r) // pooled merger: the sink owns and recycles
		return nil
	})
	runDone := make(chan error, 1)
	go func() { runDone <- m.Run(sink) }()

	samples := make([]int16, 32) // 64-byte PCM payload
	proto := record.NewData(record.SubtypeAudio)
	proto.SetPCM16(samples)
	b.SetBytes(frameLen(proto))
	b.ReportAllocs()
	b.ResetTimer()

	stream := record.ReplicaStreamID("bench")
	var wg sync.WaitGroup
	for leg := 0; leg < legs; leg++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", m.Addr())
			if err != nil {
				b.Error(err)
				return
			}
			defer conn.Close()
			bw := record.NewBatchWriter(conn, record.DefaultBatchConfig())
			r := record.NewData(record.SubtypeAudio)
			r.SetPCM16(samples)
			for i := 0; i < b.N; i++ {
				record.TagReplica(r, stream, 1, uint64(i))
				if err := bw.Write(r); err != nil {
					b.Error(err)
					return
				}
			}
			if err := bw.Flush(); err != nil {
				b.Error(err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(2 * time.Minute)
	for emitted.Load() < uint64(b.N) && !b.Failed() {
		if time.Now().After(deadline) {
			b.Fatalf("merger emitted %d of %d records before the deadline", emitted.Load(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	_ = m.Close()
	<-runDone
	if got := emitted.Load(); got != uint64(b.N) {
		b.Fatalf("emitted %d records, want exactly %d", got, b.N)
	}
}

// shardedBench measures the sharded data plane end to end over real TCP:
// a partitioner fans a keyed record stream out to K leg workers, each leg
// spends a fixed per-record service time (a timed stall standing in for
// one core's worth of segment compute, so the scaling law is visible even
// on single-core CI hosts), and a collector reorders the legs' output
// back to the input order. records/sec is the collector's exactly-once
// output rate; with the per-record cost dominating, it must scale ~K and
// never beyond K.
//
// The service model accumulates deadlines: a leg's n-th record completes
// no earlier than first-arrival + n·service. A plain time.Sleep(service)
// per record would charge the timer slack (often a millisecond, twenty
// times a 50µs service) to every record; a deadline only oversleeps once,
// and the next records catch up without sleeping, so the mean service
// time is exact whatever the slack.
func shardedBench(b *testing.B, k int, service time.Duration) {
	col, err := shard.NewCollector(shard.CollectorConfig{
		Group: "bench", ListenAddr: "127.0.0.1:0", Pooled: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	var emitted atomic.Uint64
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		emitted.Add(1)
		record.Release(r)
		return nil
	})
	runDone := make(chan error, 1)
	go func() { runDone <- col.Run(sink) }()

	// Leg workers: decode, stall for the service time, forward batched.
	legs := make([]string, k)
	var workers sync.WaitGroup
	listeners := make([]net.Listener, k)
	for i := range legs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		listeners[i] = ln
		legs[i] = ln.Addr().String()
		workers.Add(1)
		go func(ln net.Listener) {
			defer workers.Done()
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				fwd, err := net.Dial("tcp", col.Addr())
				if err != nil {
					conn.Close()
					return
				}
				// Per-record flush: the worker has no delay-flush timer, and
				// at a service-time-bound rate framing is not the bottleneck.
				out := record.NewBatchWriter(fwd, record.PerRecordConfig())
				rd := record.NewReaderSize(conn, record.DefaultMaxBatchBytes)
				rd.SetPooled(true)
				var due time.Time
				for {
					rec, err := rd.Read()
					if err != nil {
						break
					}
					if service > 0 {
						if due.IsZero() {
							due = time.Now()
						}
						due = due.Add(service)
						if wait := time.Until(due); wait > 0 {
							time.Sleep(wait)
						}
					}
					if err := out.Write(rec); err != nil {
						record.Release(rec)
						break
					}
					record.Release(rec)
				}
				_ = out.Flush()
				fwd.Close()
				conn.Close()
			}
		}(ln)
	}

	p := shard.NewPartitioner(shard.PartitionerConfig{
		Group: "bench", Epoch: 1, Legs: legs, Flush: record.DefaultBatchConfig(),
	})
	samples := make([]int16, 32) // 64-byte PCM payload
	r := record.NewData(record.SubtypeAudio)
	r.SetPCM16(samples)
	b.SetBytes(frameLen(r))
	// Warm the record pool to its steady-state population before timing:
	// at start the leg queues fill with up to LegQueue pool copies per leg
	// before the first Release cycles back, and that one-time burst would
	// otherwise dominate allocs/op at short benchtimes.
	warm := make([]*record.Record, (shard.DefaultLegQueue+64)*k)
	for i := range warm {
		warm[i] = record.GetCopy(r)
	}
	for _, w := range warm {
		record.Release(w)
	}
	// GC off for the timed region: a collection mid-run clears the
	// sync.Pool and the refill burst shows up as allocs/op noise in the
	// CI allocation gate. Total garbage over the run is a few MB.
	gcPct := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPct)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.SourceID = uint32(1 + i%61) // spread the keys across every leg
		if err := p.Consume(r); err != nil {
			b.Fatal(err)
		}
	}
	deadline := time.Now().Add(2 * time.Minute)
	for emitted.Load() < uint64(b.N) && !b.Failed() {
		if time.Now().After(deadline) {
			b.Fatalf("collector emitted %d of %d records before the deadline", emitted.Load(), b.N)
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/sec")
	_ = p.Close()
	for _, ln := range listeners {
		_ = ln.Close()
	}
	workers.Wait()
	_ = col.Close()
	<-runDone
	if got := col.Skipped(); got != 0 {
		b.Fatalf("collector skipped %d sequence slots", got)
	}
}

// BenchmarkShardedThroughput is the headline sharding scaling law: the
// same keyed stream through K=1, 2 and 8 legs at a 50µs per-record
// service time. K=1 is the unsharded baseline (one leg bounds the
// stream); K=8 must deliver at least ~3x its records/sec (ideal 8x,
// minus partition/collect overhead and key skew), proving hot segments
// scale with data parallelism rather than a faster core. A ratio above
// 8x cannot be physical and means the service model is mismeasuring.
func BenchmarkShardedThroughput(b *testing.B) {
	for _, k := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("K-%d", k), func(b *testing.B) {
			shardedBench(b, k, 50*time.Microsecond)
		})
	}
}

// BenchmarkBatchWriterFraming isolates the framing layer from TCP: encode
// throughput into an in-memory sink at both policies.
func BenchmarkBatchWriterFraming(b *testing.B) {
	r := record.NewData(record.SubtypeAudio)
	samples := make([]int16, 32)
	r.SetPCM16(samples)
	for _, tc := range []struct {
		name   string
		policy record.BatchConfig
	}{
		{"per-record", record.PerRecordConfig()},
		{"batch-64", record.DefaultBatchConfig()},
	} {
		b.Run(tc.name, func(b *testing.B) {
			bw := record.NewBatchWriter(io.Discard, tc.policy)
			b.SetBytes(frameLen(r))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := bw.Write(r); err != nil {
					b.Fatal(err)
				}
			}
			if err := bw.Flush(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkBatchFrameCodec isolates the wire codec from both TCP and the
// writer: encode a 64-record batch of 64-byte PCM records into a reused
// buffer, or decode it back through a pooled reader. The -v2 suffix is
// kept so the names line up with the committed benchmark history.
func BenchmarkBatchFrameCodec(b *testing.B) {
	const batch = 64
	recs := make([]*record.Record, batch)
	samples := make([]int16, 32)
	for i := range recs {
		r := record.NewData(record.SubtypeAudio)
		r.Seq = uint64(i)
		r.SetPCM16(samples)
		recs[i] = r
	}
	wire := record.AppendBatchWire(nil, recs...)

	b.Run("encode-v2", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		var buf []byte
		for i := 0; i < b.N; i++ {
			buf = record.AppendBatchWire(buf[:0], recs...)
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "records/sec")
	})
	b.Run("decode-v2", func(b *testing.B) {
		src := bytes.NewReader(wire)
		rd := record.NewReaderSize(src, record.DefaultMaxBatchBytes)
		rd.SetPooled(true)
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src.Reset(wire)
			rd.Reset(src)
			for {
				rec, err := rd.Read()
				if err != nil {
					break
				}
				record.Release(rec)
			}
		}
		b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "records/sec")
	})
}

// BenchmarkLatencyTraceObserve measures the data-plane latency tracing
// hot path: a record stamped at ingest folded into the lock-free unit
// histogram, and — in the probe variant — a trace probe additionally
// folded into the end-to-end histogram. Both run per record inside every
// hosted segment's sink stage, so allocs/op is gated at zero alongside
// the transport benchmarks: tracing must never reintroduce per-record
// allocation on the pooled path.
func BenchmarkLatencyTraceObserve(b *testing.B) {
	b.Run("record", func(b *testing.B) {
		tr := pipeline.NewLatencyTracer(obs.NewRegistry(), "bench")
		r := record.NewData(record.SubtypeAudio)
		r.SetPCM16(make([]int16, 32))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.IngressNanos = time.Now().UnixNano()
			tr.Observe(r)
		}
	})
	b.Run("probe", func(b *testing.B) {
		tr := pipeline.NewLatencyTracer(obs.NewRegistry(), "bench")
		p := record.NewTraceProbe(time.Now().UnixNano())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now := time.Now().UnixNano()
			record.FillTraceProbe(p, now)
			p.IngressNanos = now // probes take both the unit and e2e paths
			tr.Observe(p)
		}
	})
}

// BenchmarkLatencyQuantile measures the scrape-side cost of one quantile
// estimate over a populated latency histogram — the price of exposing
// p50/p95/p99 per unit on /metrics and in heartbeats.
func BenchmarkLatencyQuantile(b *testing.B) {
	reg := obs.NewRegistry()
	h := reg.Histogram("bench_latency_seconds", obs.LatencyBuckets)
	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 100000; i++ {
		h.Observe(rng.ExpFloat64() * 0.005)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q := h.Quantile(0.99); q <= 0 {
			b.Fatal("empty quantile")
		}
	}
}

// BenchmarkAblationSAXParams sweeps the SAX alphabet and anomaly window
// of the detector over a fixed clip, reporting extraction throughput.
// DESIGN.md §5: alphabet 8 / window 100 (the paper's settings) should be
// near the throughput/robustness knee.
func BenchmarkAblationSAXParams(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 5, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, alphabet := range []int{4, 8, 16} {
		for _, window := range []int{50, 100, 200} {
			name := fmt.Sprintf("alphabet=%d/window=%d", alphabet, window)
			b.Run(name, func(b *testing.B) {
				cfg := ops.DefaultExtractConfig()
				cfg.Anomaly.Alphabet = alphabet
				cfg.Anomaly.Window = window
				b.SetBytes(int64(8 * len(clip.Samples)))
				b.ReportAllocs()
				var red float64
				for i := 0; i < b.N; i++ {
					ext, err := core.NewExtractor(cfg).Extract(ops.Clip{
						ID: "ablate", SampleRate: clip.SampleRate, Samples: clip.Samples,
					})
					if err != nil {
						b.Fatal(err)
					}
					red = ext.Reduction()
				}
				b.ReportMetric(red*100, "reduction%")
			})
		}
	}
}

// BenchmarkAblationMAWindow sweeps the moving-average smoothing window
// (paper: 2250) and reports ensemble fragmentation: small windows split
// songs into slivers, large ones merge distinct events.
func BenchmarkAblationMAWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, window := range []int{500, 2250, 9000} {
		b.Run(fmt.Sprintf("window=%d", window), func(b *testing.B) {
			cfg := ops.DefaultExtractConfig()
			cfg.SmoothWindow = window
			cfg.TriggerWarmup = window
			cfg.TriggerHangover = 2 * window
			b.ReportAllocs()
			var count int
			for i := 0; i < b.N; i++ {
				ext, err := core.NewExtractor(cfg).Extract(ops.Clip{
					ID: "ablate", SampleRate: clip.SampleRate, Samples: clip.Samples,
				})
				if err != nil {
					b.Fatal(err)
				}
				count = len(ext.Ensembles)
			}
			b.ReportMetric(float64(count), "ensembles")
		})
	}
}

// BenchmarkAblationPAAFactor sweeps the PAA reduction factor of the
// feature pipeline (paper contrasts 1x and 10x) and reports classifier
// accuracy on a small dataset.
func BenchmarkAblationPAAFactor(b *testing.B) {
	for _, factor := range []int{1, 5, 10, 20} {
		b.Run(fmt.Sprintf("factor=%d", factor), func(b *testing.B) {
			b.ReportAllocs()
			var acc float64
			for i := 0; i < b.N; i++ {
				ds, err := core.BuildDataset(core.DatasetConfig{
					Counts:    core.ScaleCounts(core.PaperCounts(), 0.04),
					PAAFactor: factor,
					Seed:      5,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := eval.LeaveOneOutEnsembles(ds.Ensembles, eval.Options{
					Meso:        experiments.MesoConfig(),
					Repetitions: 1,
					MaxFolds:    20,
					Seed:        5,
				})
				if err != nil {
					b.Fatal(err)
				}
				acc = res.MeanAccuracy
			}
			b.ReportMetric(acc*100, "accuracy%")
		})
	}
}

// BenchmarkAblationMesoDelta sweeps the sensitivity-sphere growth
// fraction, reporting sphere granularity and accuracy.
func BenchmarkAblationMesoDelta(b *testing.B) {
	ds, err := core.BuildDataset(core.DatasetConfig{
		Counts:    core.ScaleCounts(core.PaperCounts(), 0.04),
		PAAFactor: 10,
		Seed:      6,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.45, 0.8, 1.5} {
		b.Run(fmt.Sprintf("delta=%.2f", frac), func(b *testing.B) {
			b.ReportAllocs()
			var spheres int
			var acc float64
			for i := 0; i < b.N; i++ {
				cfg := meso.Config{DeltaFraction: frac}
				cls := core.NewClassifier(cfg)
				for _, e := range ds.Ensembles {
					if err := cls.TrainEnsemble(e); err != nil {
						b.Fatal(err)
					}
				}
				spheres = cls.MESO().SphereCount()
				correct := 0
				for _, e := range ds.Ensembles {
					vote, err := cls.ClassifyEnsemble(e.Patterns)
					if err != nil {
						b.Fatal(err)
					}
					if vote.Label == e.Label {
						correct++
					}
				}
				acc = float64(correct) / float64(len(ds.Ensembles))
			}
			b.ReportMetric(float64(spheres), "spheres")
			b.ReportMetric(acc*100, "resub-accuracy%")
		})
	}
}

// BenchmarkAblationFullClipPipeline measures end-to-end throughput of the
// complete Figure 5 chain (extraction + spectral + patterns) over one
// clip, in samples/sec terms via SetBytes.
func BenchmarkAblationFullClipPipeline(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	clip, err := synth.GenerateClip(rng, synth.ClipConfig{Seconds: 10, Events: 2})
	if err != nil {
		b.Fatal(err)
	}
	fz := &core.Featurizer{PAAFactor: 10}
	b.SetBytes(int64(8 * len(clip.Samples)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext, err := core.NewExtractor(ops.DefaultExtractConfig()).Extract(ops.Clip{
			ID: "bench", SampleRate: clip.SampleRate, Samples: clip.Samples,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, e := range ext.Ensembles {
			if _, err := fz.Features(e); err != nil {
				b.Fatal(err)
			}
		}
	}
}
