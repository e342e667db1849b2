package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/meso"
	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/synth"
)

const (
	// archiveClips is the size of the recorded archive replayed in a loop;
	// accuracy varies with the archive's content, and 20 clips keep its
	// spread across seeds near 10%.
	archiveClips = 20
	// archiveEvents vocalizations per 30 s clip put the cutter's
	// reduction near the paper's 80.6%.
	archiveEvents = 5
	// warmClips are replayed and checked before the measured window.
	warmClips = 2
	// drainWait bounds how long a pass waits for in-flight results.
	drainWait = 30 * time.Second
)

// epoch anchors the job clock shared by generators and sinks.
var epoch = time.Now()

func clock() int64 { return int64(time.Since(epoch)) }

// trained is the MESO side every MESO workload shares: the training
// corpus and the classifier the sink uses, retrained at every set-up.
type trained struct {
	corpus *core.Dataset
	cls    *core.Classifier
	timed  bool
}

// corpusSeed fixes the training corpus, a Table 1 census, across runs:
// the classifier is the deployed model, and --seed varies only the audio
// it is asked to classify. It is odd; held-out sets use even seeds.
const corpusSeed = 1

func newTrained() (*trained, error) {
	ds, err := core.BuildDataset(core.DatasetConfig{PAAFactor: 10, Seed: corpusSeed})
	if err != nil {
		return nil, err
	}
	t := &trained{corpus: ds}
	return t, t.train()
}

func (t *trained) train() error {
	cls := core.NewClassifier(meso.Config{})
	for _, e := range t.corpus.Ensembles {
		if err := cls.TrainEnsemble(e); err != nil {
			return err
		}
	}
	t.cls = cls
	return nil
}

func (t *trained) setTracer(tr *tracer) { t.timed = tr != nil }
func (t *trained) spheres() int         { return t.cls.MESO().SphereCount() }

// voter classifies an ensemble's patterns one at a time as they reach a
// sink and tallies the vote the way core.Classifier.ClassifyEnsemble
// does: majority, ties to the lexicographically smallest label.
type voter struct {
	t       *trained
	scratch []float64
	votes   map[string]int
	n       int
	// MESO cost, traced passes only.
	ns, pats, evals float64
}

func (v *voter) reset() {
	v.votes = make(map[string]int)
	v.n = 0
}

func (v *voter) classify(r *record.Record) error {
	p, err := r.AppendFloat64s(v.scratch[:0])
	if err != nil {
		return err
	}
	v.scratch = p
	var start time.Time
	var evals int
	if v.t.timed {
		evals = v.t.cls.MESO().DistanceEvals()
		start = time.Now()
	}
	label, err := v.t.cls.ClassifyPattern(p)
	if err != nil {
		return err
	}
	if v.t.timed {
		v.ns += float64(time.Since(start))
		v.pats++
		v.evals += float64(v.t.cls.MESO().DistanceEvals() - evals)
	}
	v.votes[label]++
	v.n++
	return nil
}

func (v *voter) winner() string {
	best := ""
	for l, n := range v.votes {
		if best == "" || n > v.votes[best] || (n == v.votes[best] && l < best) {
			best = l
		}
	}
	return best
}

// refEnsemble is the in-process reference for one extracted ensemble.
type refEnsemble struct {
	start string // start offset as the cutter formats it
	label string // reference vote; "" when the ensemble yields no pattern
	pats  int
	truth string // species of the synthetic event it overlaps most
	// closeRec is the index, in the clip's record stream, of the station
	// record whose processing made the cutter close the ensemble.
	closeRec int
}

type archiveClip struct {
	recs    []*record.Record // the clip's record stream; recs[0] is replaced per replay
	ctx     map[string]string
	samples int
	ref     []refEnsemble
}

// archive is the paper's headline job: a recorded archive of 30 s station
// clips replayed closed loop through extract on one node and spectral on
// another, classified by MESO at the sink.
type archive struct {
	*trained
	clips   []archiveClip
	refRate float64
	st      *archiveState
}

func newArchive(p params) (job, error) {
	seed := p.seed
	tr, err := newTrained()
	if err != nil {
		return nil, err
	}
	a := &archive{trained: tr}
	station := synth.NewStation("kbs-arch", seed, synth.ClipConfig{Events: archiveEvents})
	var refNs, refSamples float64
	for i := 0; i < archiveClips; i++ {
		clip, id, err := station.NextClip()
		if err != nil {
			return nil, err
		}
		c := ops.Clip{ID: id, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples}
		start := time.Now()
		ref, err := a.referenceClip(&c, clip.Events)
		if err != nil {
			return nil, err
		}
		refNs += float64(time.Since(start))
		refSamples += float64(len(c.Samples))
		ac := archiveClip{samples: len(c.Samples), ref: ref}
		if err := ops.EmitClip(pipeline.EmitterFunc(func(r *record.Record) error {
			ac.recs = append(ac.recs, r)
			return nil
		}), &c); err != nil {
			return nil, err
		}
		ac.ctx, err = ac.recs[0].Context()
		if err != nil {
			return nil, err
		}
		a.clips = append(a.clips, ac)
	}
	a.refRate = refSamples / (refNs / 1e9)
	return a, nil
}

// referenceClip runs the paper's chain on one clip in process: the
// extraction segment (the operators core.Extractor composes, driven
// record by record so the record that closes each ensemble is known),
// then core.Featurizer and core.Classifier per ensemble.
func (a *archive) referenceClip(c *ops.Clip, events []synth.Event) ([]refEnsemble, error) {
	chain, _, err := ops.ExtractionOps(ops.DefaultExtractConfig())
	if err != nil {
		return nil, err
	}
	seg := pipeline.NewSegment("extract", chain...)
	col := ops.NewEnsembleCollector()
	var closeRecs []int
	cur := 0
	sink := pipeline.EmitterFunc(func(r *record.Record) error {
		if r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble {
			closeRecs = append(closeRecs, cur)
		}
		return col.Consume(r)
	})
	feed := pipeline.EmitterFunc(func(r *record.Record) error {
		err := seg.ProcessOne(r, sink)
		cur++
		return err
	})
	if err := ops.EmitClip(feed, c); err != nil {
		return nil, err
	}
	if err := seg.FlushAll(sink); err != nil {
		return nil, err
	}
	ens := col.Ensembles()
	if len(ens) != len(closeRecs) {
		return nil, fmt.Errorf("reference: %d ensembles, %d ensemble opens", len(ens), len(closeRecs))
	}
	fz := &core.Featurizer{PAAFactor: 10}
	out := make([]refEnsemble, len(ens))
	for i, e := range ens {
		pats, err := fz.Features(e)
		if err != nil {
			return nil, err
		}
		ref := refEnsemble{
			start:    strconv.FormatFloat(e.StartSec, 'f', 3, 64),
			pats:     len(pats),
			closeRec: closeRecs[i],
			truth:    overlapSpecies(e, events),
		}
		if len(pats) > 0 {
			vote, err := a.cls.ClassifyEnsemble(pats)
			if err != nil {
				return nil, err
			}
			ref.label = vote.Label
		}
		out[i] = ref
	}
	return out, nil
}

// overlapSpecies is the ground-truth species of the synthetic event that
// overlaps the ensemble most, or "" when none does.
func overlapSpecies(e ops.Ensemble, events []synth.Event) string {
	start := int(e.StartSec*e.SampleRate + 0.5)
	end := start + len(e.Samples)
	best, bestOv := "", 0
	for _, ev := range events {
		lo, hi := max(start, ev.Start), min(end, ev.End)
		if hi-lo > bestOv {
			best, bestOv = ev.Species, hi-lo
		}
	}
	return best
}

func (a *archive) referenceRate() float64 { return a.refRate }

// archiveReplay is one replay of an archive clip.
type archiveReplay struct {
	clip     int
	measured bool
	send     []atomic.Int64 // job-clock time each record left the station
	done     atomic.Bool
	failed   int // mismatched or missing ensembles (set by the sink at clip close)
	accurate int
	judged   int
}

// archiveState is one pass's sink-side result state.
type archiveState struct {
	mu      sync.Mutex
	replays map[int]*archiveReplay
	lat     []float64
	done    atomic.Int64

	// Sink goroutine only.
	v     voter
	cur   *archiveReplay
	ens   int
	start string
	due   int64
	got   []refEnsemble
}

func (a *archive) pipes() []pipeSpec {
	a.st = &archiveState{replays: make(map[int]*archiveReplay), v: voter{t: a.trained}}
	return []pipeSpec{{
		id: "archive",
		segments: []river.SegmentSpec{
			{Name: "extract", Type: "extract"},
			{Name: "spectral", Type: "spectral"},
		},
		sink: a.consume,
	}}
}

// consume is the archive sink: MESO classifies every pattern as it
// arrives, and each clip's detections are checked at its close.
func (a *archive) consume(r *record.Record) error {
	st := a.st
	switch {
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip:
		k, err := strconv.Atoi(strings.TrimPrefix(r.ContextValue(record.CtxClipID), "a"))
		if err != nil {
			return fmt.Errorf("archive sink: clip id: %w", err)
		}
		st.mu.Lock()
		st.cur = st.replays[k]
		st.mu.Unlock()
		st.ens, st.got = 0, st.got[:0]
	case st.cur == nil:
		return fmt.Errorf("archive sink: %s outside a clip", r)
	case r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeEnsemble:
		st.v.reset()
		st.start = r.ContextValue(record.CtxStartSec)
		st.due = 0
		if ref := a.clips[st.cur.clip].ref; st.ens < len(ref) {
			st.due = st.cur.send[ref[st.ens].closeRec].Load()
		}
	case r.Kind == record.KindData && r.Subtype == record.SubtypePattern:
		if err := st.v.classify(r); err != nil {
			return fmt.Errorf("archive sink: %w", err)
		}
		if st.cur.measured && st.due > 0 {
			st.mu.Lock()
			st.lat = append(st.lat, float64(clock()-st.due)/1e6)
			st.mu.Unlock()
		}
	case r.Kind == record.KindCloseScope && r.ScopeType == record.ScopeEnsemble:
		st.got = append(st.got, refEnsemble{start: st.start, label: st.v.winner(), pats: st.v.n})
		st.ens++
	case r.Kind.IsClose() && r.ScopeType == record.ScopeClip:
		a.check(st.cur, st.got, r.Kind == record.KindBadCloseScope)
		st.cur.done.Store(true)
		st.cur = nil
		st.done.Add(1)
	}
	return nil
}

// check compares a replay's detections with the reference.
func (a *archive) check(rp *archiveReplay, got []refEnsemble, repaired bool) {
	ref := a.clips[rp.clip].ref
	for i, want := range ref {
		if i >= len(got) || got[i].start != want.start || got[i].label != want.label || got[i].pats != want.pats {
			rp.failed++
			continue
		}
		if want.label != "" {
			rp.judged++
			if want.label == want.truth {
				rp.accurate++
			}
		}
	}
	if len(got) > len(ref) {
		rp.failed += len(got) - len(ref)
	}
	if repaired && rp.failed == 0 {
		rp.failed = 1
	}
}

func (a *archive) drive(c *cluster, seconds float64) (*measured, error) {
	st := a.st
	m := &measured{}
	out := pipeline.NewStreamOutBatched(c.coord.PipelineEntryAddr("archive"), record.DefaultBatchConfig())
	defer out.Close()
	var seq uint64
	send := func(k int, measured bool) (int, error) {
		ac := &a.clips[k%len(a.clips)]
		rp := &archiveReplay{clip: k % len(a.clips), measured: measured, send: make([]atomic.Int64, len(ac.recs))}
		st.mu.Lock()
		st.replays[k] = rp
		st.mu.Unlock()
		ctx := make(map[string]string, len(ac.ctx))
		for key, v := range ac.ctx {
			ctx[key] = v
		}
		ctx[record.CtxClipID] = "a" + strconv.Itoa(k)
		open := record.NewOpenScope(record.ScopeClip, 0)
		open.SetContext(ctx)
		for i, r := range ac.recs {
			if i == 0 {
				r = open
			}
			r.Seq = seq
			seq++
			t := clock()
			if err := out.Consume(r); err != nil {
				return 0, err
			}
			sent := clock()
			rp.send[i].Store(sent)
			m.sendNs += float64(sent - t)
		}
		m.sendRecs += float64(len(ac.recs))
		return ac.samples, nil
	}
	for k := 0; k < warmClips; k++ {
		if _, err := send(k, false); err != nil {
			return nil, err
		}
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	waitCount(&st.done, warmClips)
	m.sendNs, m.sendRecs = 0, 0

	m.a, m.wa, m.eventsA = snapshot(), c.wire(out), c.coord.Events().LastSeq()
	stopStatus := sampleStatus(c, &m.statusUs)
	samples, k := 0, warmClips
	for ; time.Since(m.a.at).Seconds() < seconds; k++ {
		n, err := send(k, true)
		if err != nil {
			return nil, err
		}
		samples += n
	}
	if err := out.Flush(); err != nil {
		return nil, err
	}
	waitCount(&st.done, k)
	m.b, m.wb, m.eventsB = snapshot(), c.wire(out), c.coord.Events().LastSeq()
	stopStatus()

	m.audioS = float64(samples) / synth.StandardSampleRate
	m.samplesPerS = float64(samples) / m.b.at.Sub(m.a.at).Seconds()
	m.units = c.settledStatus()
	m.failed = c.replicaLoss(m.units)
	st.mu.Lock()
	defer st.mu.Unlock()
	m.lat = st.lat
	// Accuracy counts each archive clip once, so it depends on the seed's
	// archive alone, not on how many replays the window held.
	judged := make(map[int]bool)
	for _, rp := range st.replays {
		ref := a.clips[rp.clip].ref
		m.attempted += len(ref)
		if !rp.done.Load() {
			m.failed += len(ref)
			continue
		}
		m.failed += rp.failed
		if !judged[rp.clip] {
			judged[rp.clip] = true
			m.accurate += rp.accurate
			m.judged += rp.judged
		}
	}
	m.mesoNs, m.mesoPats, m.distEvals = st.v.ns, st.v.pats, st.v.evals
	return m, nil
}
