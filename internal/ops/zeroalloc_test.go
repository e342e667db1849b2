package ops

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
)

// opEmitter feeds records to one operator, so a chain of them drives
// saxanomaly -> trigger -> cutter without the per-call closures of
// Segment.ProcessOne.
type opEmitter struct {
	op   pipeline.Operator
	next pipeline.Emitter
}

func (e *opEmitter) Emit(r *record.Record) error { return e.op.Process(r, e.next) }

// releasingSink is the end of the ownership chain: it releases every
// record the cutter emits.
type releasingSink struct{}

func (releasingSink) Emit(r *record.Record) error {
	record.Release(r)
	return nil
}

// extractChain wires the paper's extraction operators into a releasing
// sink and returns the chain's head and its cutter.
func extractChain(tb testing.TB) (pipeline.Emitter, *Cutter) {
	tb.Helper()
	chain, cutter, err := ExtractionOps(DefaultExtractConfig())
	if err != nil {
		tb.Fatal(err)
	}
	var head pipeline.Emitter = releasingSink{}
	for i := len(chain) - 1; i >= 0; i-- {
		head = &opEmitter{op: chain[i], next: head}
	}
	return head, cutter
}

// benchClip is one 30 s synthetic station clip with vocalizations.
func benchClip(tb testing.TB) *synth.Clip {
	tb.Helper()
	clip, err := synth.GenerateClip(rand.New(rand.NewSource(13)), synth.ClipConfig{Seconds: 30, Events: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return clip
}

// feedAudio emits samples as pooled audio records inside a clip scope.
func feedAudio(tb testing.TB, head pipeline.Emitter, samples []float64) {
	for start := 0; start < len(samples); start += RecordSamples {
		r := pooledRecord(record.KindData, record.SubtypeAudio, 1, record.ScopeClip)
		r.SetFloat64s(samples[start:min(start+RecordSamples, len(samples))])
		if err := head.Emit(r); err != nil {
			tb.Fatal(err)
		}
	}
}

// openClip emits the scope record opening a clip at the synth sample rate.
func openClip(tb testing.TB, head pipeline.Emitter) {
	open := pooledRecord(record.KindOpenScope, 0, 0, record.ScopeClip)
	open.SetContext(map[string]string{
		record.CtxSampleRate: strconv.Itoa(synth.StandardSampleRate),
		record.CtxSpecies:    "RWBL",
	})
	if err := head.Emit(open); err != nil {
		tb.Fatal(err)
	}
}

// TestExtractChainZeroAlloc pins the steady-state cost of the extraction
// chain: inside one long clip, with ensembles opening and closing, the
// audio, score and trigger records cycle through the record pool, every
// operator decodes into its own scratch, and nothing is allocated per
// record. The only allocations left are once per ensemble — the context
// map naming its sample rate, start and species — which the test
// measures on its own and subtracts.
func TestExtractChainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled paths allocate by design")
	}
	head, cutter := extractChain(t)
	clip := benchClip(t)
	openClip(t, head)
	// Warm: the detector, smoother and trigger baseline fill, and every
	// scratch buffer and the pool reach their working size.
	for i := 0; i < 2; i++ {
		feedAudio(t, head, clip.Samples)
	}
	perEnsemble := testing.AllocsPerRun(50, func() { record.Release(cutter.openEnsemble()) })

	// AllocsPerRun makes one unmeasured warm-up call before its runs, so
	// the first call's ensembles are not counted.
	const runs = 4
	calls, ensembles := 0, 0.0
	allocs := testing.AllocsPerRun(runs, func() {
		before := cutter.Ensembles()
		feedAudio(t, head, clip.Samples)
		if calls++; calls > 1 {
			ensembles += float64(cutter.Ensembles()-before) / runs
		}
	})
	if ensembles < 2 {
		t.Fatalf("steady state cut %.1f ensembles per pass, want ensembles opening and closing", ensembles)
	}
	records := (len(clip.Samples) + RecordSamples - 1) / RecordSamples
	perRecord := (allocs - ensembles*perEnsemble) / float64(records)
	t.Logf("per pass: %d records, %.1f ensembles, %.0f allocs (%.0f per ensemble context), %.4f/record",
		records, ensembles, allocs, perEnsemble, perRecord)
	if perRecord > 0.01 {
		t.Fatalf("extraction chain allocates %.3f/record beyond the ensemble contexts, want 0", perRecord)
	}
}

// BenchmarkExtractChain runs one 30 s synthetic clip per op through the
// paper's extraction operators (saxanomaly -> trigger -> cutter) into a
// releasing sink, reporting samples/s; allocs/op counts the per-clip and
// per-ensemble context allocations, which are all that remain.
func BenchmarkExtractChain(b *testing.B) {
	head, _ := extractChain(b)
	clip := benchClip(b)
	run := func() {
		openClip(b, head)
		feedAudio(b, head, clip.Samples)
		if err := head.Emit(pooledRecord(record.KindCloseScope, 0, 0, record.ScopeClip)); err != nil {
			b.Fatal(err)
		}
	}
	run() // warm the pool and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(len(clip.Samples))*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}

// spectralChain wires the paper's spectral operators (reslice -> ... ->
// rec2vect, PAA factor 10) into a releasing sink and returns its head.
func spectralChain() pipeline.Emitter {
	chain := SpectralOps(10)
	var head pipeline.Emitter = releasingSink{}
	for i := len(chain) - 1; i >= 0; i-- {
		head = &opEmitter{op: chain[i], next: head}
	}
	return head
}

// feedEnsemble emits samples as one ensemble scope of pooled audio
// records, whole records only, as the cutter ships them. With ctx the
// ensemble open carries the sample rate, as the cutter's does; without,
// the rate comes from an enclosing scope.
func feedEnsemble(tb testing.TB, head pipeline.Emitter, samples []float64, ctx bool) {
	open := pooledRecord(record.KindOpenScope, 0, 1, record.ScopeEnsemble)
	if ctx {
		open.SetContext(map[string]string{record.CtxSampleRate: strconv.Itoa(synth.StandardSampleRate)})
	}
	if err := head.Emit(open); err != nil {
		tb.Fatal(err)
	}
	for start := 0; start+RecordSamples <= len(samples); start += RecordSamples {
		r := pooledRecord(record.KindData, record.SubtypeAudio, 2, record.ScopeEnsemble)
		r.SetFloat64s(samples[start : start+RecordSamples])
		if err := head.Emit(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := head.Emit(pooledRecord(record.KindCloseScope, 0, 1, record.ScopeEnsemble)); err != nil {
		tb.Fatal(err)
	}
}

// TestSpectralChainZeroAlloc pins the steady-state cost of the spectral
// chain: audio records and reslice's overlaps cycle through every
// operator and back to the pool at rec2vect, the patterns at the sink,
// and nothing is allocated per record. The clip scope carries the sample
// rate once, so the ensemble opens parse no context.
func TestSpectralChainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled paths allocate by design")
	}
	head := spectralChain()
	clip := benchClip(t)
	openClip(t, head)
	// Warm: every scratch buffer, window, FFT plan and the pool reach
	// their working size.
	for i := 0; i < 2; i++ {
		feedEnsemble(t, head, clip.Samples, false)
	}
	const runs = 4
	allocs := testing.AllocsPerRun(runs, func() { feedEnsemble(t, head, clip.Samples, false) })
	records := len(clip.Samples) / RecordSamples
	perRecord := allocs / float64(records)
	t.Logf("per ensemble: %d audio records, %.0f allocs, %.4f/record", records, allocs, perRecord)
	if perRecord > 0.01 {
		t.Fatalf("spectral chain allocates %.3f/record, want 0", perRecord)
	}
}

// BenchmarkSpectralChain runs one 30 s ensemble stream per op through the
// paper's spectral operators (reslice -> welchwindow -> float2cplx -> dft
// -> cabs -> cutout -> paa -> rec2vect) into a releasing sink, reporting
// samples/s; allocs/op counts the ensemble open's context, which is all
// that remains. It is the spectral twin of BenchmarkExtractChain.
func BenchmarkSpectralChain(b *testing.B) {
	head := spectralChain()
	clip := benchClip(b)
	feedEnsemble(b, head, clip.Samples, true) // warm the pool and scratch buffers
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feedEnsemble(b, head, clip.Samples, true)
	}
	b.ReportMetric(float64(len(clip.Samples)/RecordSamples*RecordSamples)*float64(b.N)/b.Elapsed().Seconds(), "samples/s")
}
