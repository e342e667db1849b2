package main

import (
	"encoding/json"
	"os"
	"strconv"
	"testing"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// stationRecords is one short synthetic clip's record stream.
func stationRecords(t *testing.T) []*record.Record {
	t.Helper()
	st := synth.NewStation("test", 7, synth.ClipConfig{Seconds: 8, Events: 2})
	clip, id, err := st.NextClip()
	if err != nil {
		t.Fatal(err)
	}
	var recs []*record.Record
	err = ops.EmitClip(pipeline.EmitterFunc(func(r *record.Record) error {
		recs = append(recs, r)
		return nil
	}), &ops.Clip{ID: id, Station: st.Name, SampleRate: clip.SampleRate, Samples: clip.Samples})
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// buffering holds every record until Flush, to check that the wrapper
// forwards pipeline.Flusher.
type buffering struct{ held []*record.Record }

func (b *buffering) Name() string { return "buffering" }
func (b *buffering) Process(r *record.Record, _ pipeline.Emitter) error {
	b.held = append(b.held, r)
	return nil
}
func (b *buffering) Flush(out pipeline.Emitter) error {
	for _, r := range b.held {
		if err := out.Emit(r); err != nil {
			return err
		}
	}
	b.held = nil
	return nil
}

// runChain pushes recs through a segment of chain and returns the keys of
// what comes out, flushes included.
func runChain(t *testing.T, chain []pipeline.Operator, recs []*record.Record) []uint64 {
	t.Helper()
	seg := pipeline.NewSegment("test", chain...)
	var keys []uint64
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		keys = append(keys, recordKey(r))
		return nil
	})
	for _, r := range recs {
		if err := seg.ProcessOne(r.Clone(), sink); err != nil {
			t.Fatal(err)
		}
	}
	if err := seg.FlushAll(sink); err != nil {
		t.Fatal(err)
	}
	return keys
}

func alerts(chain []pipeline.Operator) uint64 {
	var n uint64
	for _, op := range chain {
		if a, ok := op.(pipeline.AlertCounter); ok {
			n += a.Alerts()
		}
	}
	return n
}

// TestTracedChainsMatchBare checks that the span-recording wrappers change
// nothing a chain emits or counts: the paper's full chain ending in a
// flushing operator, and the change detector (alerts), give identical
// records and counters traced and bare.
func TestTracedChainsMatchBare(t *testing.T) {
	recs := stationRecords(t)
	build := func() ([]pipeline.Operator, *ops.Cutter) {
		chain, cutter, err := ops.ExtractionOps(ops.DefaultExtractConfig())
		if err != nil {
			t.Fatal(err)
		}
		det, err := ops.NewChangeDetect(ops.ChangeDetectConfig{})
		if err != nil {
			t.Fatal(err)
		}
		chain = append(chain, ops.SpectralOps(10)...)
		// The detector runs as a chain of its own on the station audio.
		return append(chain, &buffering{}, det), cutter
	}
	bare, bareCut := build()
	tr := newTracer()
	chain, tracedCut := build()
	traced := tr.wrap(chain[:len(chain)-1])
	tracedDet := tr.wrap(chain[len(chain)-1:])
	for _, op := range append(traced, tracedDet...) {
		if _, ok := op.(pipeline.Flusher); !ok {
			t.Fatalf("wrapped %s does not forward pipeline.Flusher", op.Name())
		}
		if _, ok := op.(pipeline.AlertCounter); !ok {
			t.Fatalf("wrapped %s does not forward pipeline.AlertCounter", op.Name())
		}
	}

	for _, c := range []struct {
		name        string
		bare, trace []pipeline.Operator
	}{
		{"paper chain", bare[:len(bare)-1], traced},
		{"detector", bare[len(bare)-1:], tracedDet},
	} {
		want := runChain(t, c.bare, recs)
		got := runChain(t, c.trace, recs)
		if len(want) == 0 {
			t.Fatalf("%s: the bare chain emitted nothing", c.name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: traced chain emitted %d records, bare %d", c.name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: record %d differs traced vs bare", c.name, i)
			}
		}
	}
	if a, b := alerts(tracedDet), alerts(bare); a != b || b == 0 {
		t.Errorf("alerts traced %d, bare %d (want equal and nonzero)", a, b)
	}
	if tracedCut.SamplesIn() != bareCut.SamplesIn() || tracedCut.SamplesKept() != bareCut.SamplesKept() ||
		tracedCut.Ensembles() != bareCut.Ensembles() {
		t.Errorf("cutter counters differ traced vs bare")
	}
	spans := tr.spans()
	if len(spans) < len(recs)*len(chain)/2 {
		t.Errorf("%d spans for %d records through %d operators", len(spans), len(recs), len(chain))
	}
	for _, s := range spans {
		if s.self < 0 || s.self > s.end-s.start {
			t.Fatalf("span %+v: self time outside its duration", s)
		}
	}
}

// TestReferenceMatchesCore checks the archive reference, which drives the
// extraction operators record by record to learn which record closes each
// ensemble, against core's own extractor, featurizer and classifier.
func TestReferenceMatchesCore(t *testing.T) {
	tr, err := newTrained()
	if err != nil {
		t.Fatal(err)
	}
	a := &archive{trained: tr}
	st := synth.NewStation("test", 5, synth.ClipConfig{Events: archiveEvents})
	clip, id, err := st.NextClip()
	if err != nil {
		t.Fatal(err)
	}
	c := ops.Clip{ID: id, Station: st.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
	ref, err := a.referenceClip(&c, clip.Events)
	if err != nil {
		t.Fatal(err)
	}
	dets, _, err := core.NewAnalyzer(ops.DefaultExtractConfig(), 10, tr.cls).Analyze(c)
	if err != nil {
		t.Fatal(err)
	}
	var voted []refEnsemble
	for _, r := range ref {
		if r.label != "" {
			voted = append(voted, r)
		}
	}
	if len(voted) == 0 || len(voted) != len(dets) {
		t.Fatalf("reference has %d voted ensembles, core.Analyzer %d detections", len(voted), len(dets))
	}
	for i, d := range dets {
		if d.Species != voted[i].label || strconv.FormatFloat(d.StartSec, 'f', 3, 64) != voted[i].start {
			t.Errorf("detection %d: core %s at %.3f, reference %s at %s", i, d.Species, d.StartSec, voted[i].label, voted[i].start)
		}
		if i > 0 && voted[i].closeRec <= voted[i-1].closeRec {
			t.Errorf("ensemble %d closes at record %d, before its predecessor", i, voted[i].closeRec)
		}
	}
}

// TestTracedRunMatchesUntraced runs the archive workload on a live
// cluster untraced and traced: both must reproduce the reference's
// detections for every clip, with no loss or repair counted.
func TestTracedRunMatchesUntraced(t *testing.T) {
	if testing.Short() {
		t.Skip("starts two in-process clusters")
	}
	j, err := newArchive(params{seed: 3, seconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := pass(j, newRegistry(nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	j.setTracer(tr)
	traced, err := pass(j, newRegistry(tr), 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, pr := range map[string]*passResult{"untraced": plain, "traced": traced} {
		if o := verdict(pr.m); !o.correct {
			t.Errorf("%s run: %d of %d results failed the reference check", name, o.failed, o.attempted)
		}
	}
	if plain.kept <= 0 || traced.kept <= 0 {
		t.Errorf("cutters kept %.2f%% untraced, %.2f%% traced", plain.kept, traced.kept)
	}
	if len(tr.spans()) == 0 {
		t.Error("the traced run recorded no spans")
	}
}

// TestBenchmarkJSONNamesMatch keeps BENCHMARK.json's metric lists in step
// with what the benchmark prints.
func TestBenchmarkJSONNamesMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	e2e := endToEnd(&passResult{setupS: []float64{1}, m: &measured{audioS: 1}}).metrics
	check := func(kind string, listed []struct{ Name, Unit string }, printed []metric) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(listed), len(printed))
			return
		}
		for i, m := range printed {
			if listed[i].Name != m.name || listed[i].Unit != m.unit {
				t.Errorf("%s %d: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, listed[i].Name, listed[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, e2e)
	check("per_layer", spec.PerLayer, layerNames())
}
