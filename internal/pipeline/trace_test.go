package pipeline

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/record"
)

// TestLatencyTracerObserve drives stamped records and trace probes
// through a tracer and checks both histograms fill with plausible
// values, while unstamped records and nil tracers stay inert.
func TestLatencyTracerObserve(t *testing.T) {
	var nilTracer *LatencyTracer
	nilTracer.Observe(record.NewData(0)) // must not panic
	if nilTracer.UnitQuantile(0.5) != 0 || nilTracer.E2EQuantile(0.5) != 0 {
		t.Fatal("nil tracer reports non-zero quantiles")
	}

	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "u1")

	// An unstamped record contributes to neither series.
	tr.Observe(record.NewData(record.SubtypeAudio))
	if got := reg.Histogram("dynriver_unit_latency_seconds", obs.LatencyBuckets, "unit", "u1").Count(); got != 0 {
		t.Fatalf("unstamped record counted: %d", got)
	}

	// A stamped record contributes its ingress-to-now delta.
	r := record.NewData(record.SubtypeAudio)
	r.IngressNanos = time.Now().Add(-5 * time.Millisecond).UnixNano()
	tr.Observe(r)
	if got := tr.UnitQuantile(0.99); got < 0.004 || got > 0.2 {
		t.Errorf("unit p99 = %gs, want ~5ms", got)
	}

	// A probe contributes origin-to-now to the e2e series.
	probe := record.NewTraceProbe(time.Now().Add(-20 * time.Millisecond).UnixNano())
	tr.Observe(probe)
	if tr.E2ECount() != 1 {
		t.Fatalf("e2e count = %d, want 1", tr.E2ECount())
	}
	if got := tr.E2EQuantile(0.99); got < 0.01 || got > 0.3 {
		t.Errorf("e2e p99 = %gs, want ~20ms", got)
	}

	// NewLatencyTracer on a nil registry disables tracing.
	if NewLatencyTracer(nil, "u2") != nil {
		t.Fatal("nil registry must yield a nil tracer")
	}
}

// TestTraceProbeRoundTrip locks the probe encoding: origin survives the
// wire codec, and non-probes are rejected.
func TestTraceProbeRoundTrip(t *testing.T) {
	origin := time.Now().UnixNano()
	p := record.NewTraceProbe(origin)
	if !record.IsTraceProbe(p) {
		t.Fatal("probe not recognized")
	}
	// The in-memory ingress stamp must not survive the wire.
	p.IngressNanos = 42
	dec, err := record.NewReader(bytes.NewReader(record.AppendBatchWire(nil, p))).Read()
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	got, err := record.TraceOrigin(dec)
	if err != nil || got != origin {
		t.Fatalf("origin round trip: %d, %v (want %d)", got, err, origin)
	}
	if dec.IngressNanos != 0 {
		t.Fatalf("IngressNanos leaked onto the wire: %d", dec.IngressNanos)
	}
	if _, err := record.TraceOrigin(record.NewData(0)); err == nil {
		t.Fatal("TraceOrigin accepted a data record")
	}
}

// TestProbeSourceInjectsProbes runs a wrapped source and asserts probes
// appear between data records, with origins that measure as small e2e
// latencies at the sink.
func TestProbeSourceInjectsProbes(t *testing.T) {
	src := SourceFunc{SourceName: "gen", Fn: func(out Emitter) error {
		for i := 0; i < 50; i++ {
			r := record.NewData(record.SubtypeAudio)
			r.SetFloat64s([]float64{float64(i)})
			if err := out.Emit(r); err != nil {
				return err
			}
			time.Sleep(time.Millisecond)
		}
		return nil
	}}
	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "probe-test")
	var data, probes int
	sink := SinkFunc{SinkName: "count", Fn: func(r *record.Record) error {
		if record.IsTraceProbe(r) {
			probes++
		} else if r.Kind == record.KindData {
			data++
		}
		return nil
	}}
	p := New().SetSource(&ProbeSource{Source: src, Interval: 10 * time.Millisecond}).SetSink(sink)
	p.Tracer = tr
	if err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if data != 50 {
		t.Errorf("data records = %d, want 50", data)
	}
	if probes < 2 {
		t.Errorf("probes = %d, want >= 2 over ~50ms at 10ms interval", probes)
	}
	if got := tr.E2ECount(); got != uint64(probes) {
		t.Errorf("tracer saw %d probes, sink saw %d", got, probes)
	}
	if e2e := tr.E2EQuantile(0.99); e2e <= 0 || e2e > 1 {
		t.Errorf("e2e p99 = %gs, want small positive", e2e)
	}
}

// TestLatencyTracerZeroAlloc pins the tracing cost on the pooled
// steady-state path: observing a stamped data record (the per-record
// case; probes are rare) must allocate nothing.
func TestLatencyTracerZeroAlloc(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewLatencyTracer(reg, "pin")
	r := record.NewData(record.SubtypeAudio)
	r.SetFloat64s([]float64{1, 2, 3})
	r.IngressNanos = time.Now().UnixNano()
	// Warm any lazy paths.
	for i := 0; i < 256; i++ {
		tr.Observe(r)
	}
	avg := testing.AllocsPerRun(200, func() {
		r.IngressNanos = time.Now().UnixNano()
		tr.Observe(r)
	})
	if avg != 0 {
		t.Fatalf("LatencyTracer.Observe allocates %.2f allocs/record; want 0", avg)
	}
}
