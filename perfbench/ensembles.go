package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/synth"
)

const (
	// ensembleRate is the open-loop offer in ensembles per second, about
	// half of what spectral sustains on a 2-vCPU host: 400/s held a 44 ms
	// p99, 550/s built a backlog.
	ensembleRate = 250
	// warmSeconds of open-loop load run before the measured window.
	warmSeconds = 2.0
)

// ensembleItem is one pre-cut labelled ensemble and its reference.
type ensembleItem struct {
	recs    []*record.Record // ensemble open, audio records, ensemble close
	samples int
	label   string // ground truth
	ref     string // reference vote
	pats    int
}

// ensembles is Fig. 5's split: stations cut ensembles on the device and
// ship them, open loop, into spectral and then MESO at the sink.
type ensembles struct {
	*trained
	items   []ensembleItem
	refRate float64
	st      *ensembleState
}

func newEnsembles(p params) (job, error) {
	seed := p.seed
	tr, err := newTrained()
	if err != nil {
		return nil, err
	}
	e := &ensembles{trained: tr}
	// The held-out set is rendered the way core.BuildDataset renders its
	// corpus; an even seed never repeats the odd corpusSeed's corpus.
	held := rand.New(rand.NewSource(2 * seed))
	fz := &core.Featurizer{PAAFactor: 10}
	var refNs, refSamples float64
	for _, sc := range core.PaperCounts() {
		sp, err := synth.ByCode(sc.Code)
		if err != nil {
			return nil, err
		}
		for i := 0; i < sc.Ensembles; i++ {
			want := sc.Patterns / sc.Ensembles
			if i < sc.Patterns%sc.Ensembles {
				want++
			}
			ens := renderEnsemble(held, sp, want)
			start := time.Now()
			pats, err := fz.Features(ens)
			if err != nil {
				return nil, err
			}
			vote, err := tr.cls.ClassifyEnsemble(pats)
			if err != nil {
				return nil, err
			}
			refNs += float64(time.Since(start))
			refSamples += float64(len(ens.Samples))
			e.items = append(e.items, ensembleItem{
				recs:    ensembleRecords(ens),
				samples: len(ens.Samples),
				label:   sc.Code,
				ref:     vote.Label,
				pats:    len(pats),
			})
		}
	}
	held.Shuffle(len(e.items), func(i, j int) { e.items[i], e.items[j] = e.items[j], e.items[i] })
	e.refRate = refSamples / (refNs / 1e9)
	return e, nil
}

// renderEnsemble renders one vocalization long enough for `patterns`
// feature vectors, under ambient noise, as core.BuildDataset does.
func renderEnsemble(r *rand.Rand, sp synth.Species, patterns int) ops.Ensemble {
	records := (3*patterns + 2) / 2 // the fewest m with (2m-1)/3 >= patterns
	need := records * ops.RecordSamples
	samples := sp.RenderAtLeast(r, synth.StandardSampleRate, float64(need)/synth.StandardSampleRate)
	samples = samples[:min(len(samples), need)]
	bg := make([]float64, len(samples))
	synth.AddBackground(bg, r, synth.StandardSampleRate, 0.02)
	for i := range samples {
		samples[i] += bg[i]
	}
	return ops.Ensemble{Species: sp.Code, SampleRate: synth.StandardSampleRate, Samples: samples}
}

// ensembleRecords is the record stream a station ships for one cut
// ensemble: an ensemble scope of audio records, zero-padded to whole
// records as the cutter pads them.
func ensembleRecords(e ops.Ensemble) []*record.Record {
	open := record.NewOpenScope(record.ScopeEnsemble, 1)
	open.SetContext(map[string]string{record.CtxSampleRate: strconv.FormatFloat(e.SampleRate, 'f', -1, 64)})
	recs := []*record.Record{open}
	for start := 0; start < len(e.Samples); start += ops.RecordSamples {
		payload := make([]float64, ops.RecordSamples)
		copy(payload, e.Samples[start:min(start+ops.RecordSamples, len(e.Samples))])
		r := record.NewData(record.SubtypeAudio)
		r.Scope = 2
		r.ScopeType = record.ScopeEnsemble
		r.SetFloat64s(payload)
		recs = append(recs, r)
	}
	return append(recs, record.NewCloseScope(record.ScopeEnsemble, 1))
}

func (e *ensembles) referenceRate() float64 { return e.refRate }

// ensembleState is one pass's sink-side result state.
type ensembleState struct {
	t0      atomic.Int64 // job-clock time ensemble 0 was due
	period  float64      // ns between ensembles
	measure [2]int       // ensembles with index in [from, to) are measured

	mu       sync.Mutex
	lat      []float64
	failed   int
	accurate int
	judged   int
	samples  int   // audio samples of measured ensembles delivered
	last     int64 // job-clock time the last measured ensemble completed
	done     atomic.Int64

	// Sink goroutine only.
	v   voter
	cur int
}

func (e *ensembles) pipes() []pipeSpec {
	e.st = &ensembleState{v: voter{t: e.trained}, period: 1e9 / ensembleRate, cur: -1}
	return []pipeSpec{{
		id:       "ensembles",
		segments: []river.SegmentSpec{{Name: "spectral", Type: "spectral"}},
		sink:     e.consume,
	}}
}

// consume is the ensembles sink: each ensemble's vote completes at its
// close and is checked against the reference.
func (e *ensembles) consume(r *record.Record) error {
	st := e.st
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
		k, err := strconv.Atoi(strings.TrimPrefix(r.ContextValue(record.CtxClipID), "e"))
		if err != nil {
			return fmt.Errorf("ensembles sink: clip id: %w", err)
		}
		st.cur = k
		st.v.reset()
	case r.Kind == record.KindData && r.Subtype == record.SubtypePattern:
		if err := st.v.classify(r); err != nil {
			return fmt.Errorf("ensembles sink: %w", err)
		}
	case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeEnsemble:
		it := &e.items[st.cur%len(e.items)]
		vote := st.v.winner()
		due := st.t0.Load() + int64(float64(st.cur)*st.period)
		st.mu.Lock()
		if vote != it.ref || st.v.n != it.pats {
			st.failed++
		}
		if st.cur >= st.measure[0] && st.cur < st.measure[1] {
			st.last = clock()
			st.lat = append(st.lat, float64(st.last-due)/1e6)
			st.samples += it.samples
			st.judged++
			if vote == it.label {
				st.accurate++
			}
		}
		st.mu.Unlock()
		st.done.Add(1)
	}
	return nil
}

func (e *ensembles) drive(c *cluster, seconds float64) (*measured, error) {
	st := e.st
	m := &measured{}
	out := pipeline.NewStreamOutBatched(c.coord.PipelineEntryAddr("ensembles"), record.DefaultBatchConfig())
	defer out.Close()
	warm := int(warmSeconds * ensembleRate)
	total := warm + int(seconds*ensembleRate)
	t0 := clock() + int64(50*time.Millisecond)
	st.mu.Lock()
	st.measure = [2]int{warm, total}
	st.mu.Unlock()
	st.t0.Store(t0)

	sr := strconv.FormatFloat(synth.StandardSampleRate, 'f', -1, 64)
	var seq uint64
	consume := func(r *record.Record) error {
		r.Seq = seq
		seq++
		return out.Consume(r)
	}
	gen := make(chan error, 1)
	go func() {
		var sendNs, sendRecs float64
		for k := 0; k < total; k++ {
			due := t0 + int64(float64(k)*st.period)
			if d := due - clock(); d > 0 {
				time.Sleep(time.Duration(d))
			}
			m.genLag = append(m.genLag, float64(clock()-due)/1e6)
			it := &e.items[k%len(e.items)]
			open := record.NewOpenScope(record.ScopeClip, 0)
			open.SetContext(map[string]string{record.CtxSampleRate: sr, record.CtxClipID: "e" + strconv.Itoa(k)})
			start := clock()
			if err := consume(open); err != nil {
				gen <- err
				return
			}
			for _, r := range it.recs {
				if err := consume(r); err != nil {
					gen <- err
					return
				}
			}
			if err := consume(record.NewCloseScope(record.ScopeClip, 0)); err != nil {
				gen <- err
				return
			}
			if k >= warm {
				sendNs += float64(clock() - start)
				sendRecs += float64(len(it.recs) + 2)
			}
		}
		m.sendNs, m.sendRecs = sendNs, sendRecs
		gen <- out.Flush()
	}()

	sleepUntil(t0 + int64(warmSeconds*1e9))
	m.a, m.wa, m.eventsA = snapshot(), c.wire(out), c.coord.Events().LastSeq()
	stopStatus := sampleStatus(c, &m.statusUs)
	sleepUntil(t0 + int64((warmSeconds+seconds)*1e9))
	m.b, m.wb, m.eventsB = snapshot(), c.wire(out), c.coord.Events().LastSeq()
	stopStatus()
	if err := <-gen; err != nil {
		return nil, err
	}
	waitCount(&st.done, total)

	m.units = c.settledStatus()
	m.failed = c.replicaLoss(m.units)
	st.mu.Lock()
	defer st.mu.Unlock()
	for k := warm; k < total; k++ {
		m.audioS += float64(e.items[k%len(e.items)].samples) / synth.StandardSampleRate
	}
	m.samplesPerS = deliveredRate(float64(st.samples), t0+int64(warmSeconds*1e9), st.last)
	m.lat = st.lat
	m.attempted = total
	m.failed += st.failed + total - int(st.done.Load())
	m.accurate, m.judged = st.accurate, st.judged
	m.mesoNs, m.mesoPats, m.distEvals = st.v.ns, st.v.pats, st.v.evals
	// Generator lag counts only the ensembles due in the measured window.
	m.genLag = m.genLag[warm:]
	return m, nil
}

// deliveredRate is samples delivered per wall second, from the start of
// the measured window to the last delivery of a result due in it; it
// falls below the offer when the system lags.
func deliveredRate(samples float64, from, last int64) float64 {
	if last <= from {
		return 0
	}
	return samples / (float64(last-from) / 1e9)
}

func sleepUntil(at int64) {
	if d := at - clock(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}
