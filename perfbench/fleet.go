package main

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ops"
	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/river"
	"repro/internal/synth"
)

const (
	// fleetStations is how many live stations, each streaming in real
	// time, share one station connection; there is one connection per
	// pipeline. The pipelines sustain about 450 per connection on a
	// 2-vCPU host (384 held a 14 ms p99; 576 built a backlog and lost
	// records), but the host's CPU steal reaches 50%: at 240, one run in
	// five lost records to the splitter's 256-record leg queues (44 ms of
	// stream). 96 keeps the queues 111 ms deep and the host 35% busy.
	fleetStations = 96
	// fleetClips unique 30 s clips per pipeline are replayed in a loop.
	fleetClips = 4
	// fleetShards is K of the wide pipeline's sharded segment.
	fleetShards = 2
	// clipRecs is one 30 s clip's record stream: open, 720 audio, close.
	clipRecs = 722
)

// fleetRate is each connection's open-loop offer in records per second.
const fleetRate = fleetStations * synth.StandardSampleRate / ops.RecordSamples

// fleetPipe is one of the two fleet pipelines and its load.
type fleetPipe struct {
	id     string
	prefix string             // clip-id prefix
	clips  [][]*record.Record // audio records per unique clip
	ctx    map[string]string
	keys   []uint64   // recordKey of every slot's record: what the sink must receive
	alerts []refAlert // the alerts the per-station detectors raise, in order
}

// refAlert is one alert record of the reference: its key and the slot of
// the record that raised it.
type refAlert struct {
	key  uint64
	slot int
}

// fleet is two pipelines on the shared node pool, each fed open loop by
// one station connection that multiplexes fleetStations live stations
// clip by clip: ha (relay:3 → relay) and wide (relay sharded K=2 by the
// station's SourceID). The benchmark sink runs change detection per
// station (ops.ChangeDetect) on what arrives.
type fleet struct {
	lines   [2]*fleetPipe
	refRate float64
	tr      *tracer
	st      [2]*fleetState
}

// record is the record in schedule slot `slot` of a pipeline: clip
// j = slot/clipRecs of station j%fleetStations, whose SourceID is
// station+1. Open-scope records are built fresh; the others are shared
// and only their SourceID and Seq are rewritten, by one goroutine.
func (p *fleetPipe) record(slot int) *record.Record {
	j, i := slot/clipRecs, slot%clipRecs
	station := j % fleetStations
	var r *record.Record
	switch i {
	case 0:
		ctx := make(map[string]string, len(p.ctx)+2)
		for k, v := range p.ctx {
			ctx[k] = v
		}
		ctx[record.CtxClipID] = p.prefix + strconv.Itoa(j)
		ctx[record.CtxStation] = p.id + "-" + strconv.Itoa(station)
		r = record.NewOpenScope(record.ScopeClip, 0)
		r.SetContext(ctx)
	case clipRecs - 1:
		r = record.NewCloseScope(record.ScopeClip, 0)
	default:
		r = p.clips[j%len(p.clips)][i-1]
	}
	r.SourceID = uint32(station + 1)
	return r
}

// fleetSlots is how many schedule slots a pass of `seconds` sends: the
// warm-up and the measured window, rounded up to whole clips so no clip
// is left open when the load stops.
func fleetSlots(seconds float64) int {
	n := int((warmSeconds + seconds) * fleetRate)
	return (n + clipRecs - 1) / clipRecs * clipRecs
}

func newFleet(p params) (job, error) {
	f := &fleet{}
	total := fleetSlots(p.seconds)
	var refNs, refSamples float64
	for n, id := range []string{"ha", "wide"} {
		fp := &fleetPipe{id: id, prefix: id[:1]}
		station := synth.NewStation("kbs-"+id, p.seed*2+int64(n), synth.ClipConfig{})
		for c := 0; c < fleetClips; c++ {
			clip, cid, err := station.NextClip()
			if err != nil {
				return nil, err
			}
			var recs []*record.Record
			err = ops.EmitClip(pipeline.EmitterFunc(func(r *record.Record) error {
				recs = append(recs, r)
				return nil
			}), &ops.Clip{ID: cid, Station: station.Name, SampleRate: clip.SampleRate, Samples: clip.Samples})
			if err != nil {
				return nil, err
			}
			if len(recs) != clipRecs {
				return nil, fmt.Errorf("fleet: clip of %d records, want %d", len(recs), clipRecs)
			}
			if fp.ctx, err = recs[0].Context(); err != nil {
				return nil, err
			}
			fp.clips = append(fp.clips, recs[1:clipRecs-1])
		}
		start := time.Now()
		det := newStationDetect(nil)
		for slot := 0; slot < total; slot++ {
			r := fp.record(slot)
			fp.keys = append(fp.keys, recordKey(r))
			if err := det.consume(r, func(a uint64) { fp.alerts = append(fp.alerts, refAlert{a, slot}) }); err != nil {
				return nil, err
			}
		}
		refNs += float64(time.Since(start))
		refSamples += float64(total) * ops.RecordSamples
		f.lines[n] = fp
	}
	f.refRate = refSamples / (refNs / 1e9)
	return f, nil
}

// stationDetect runs one ops.ChangeDetect per station over a pipeline's
// clip-by-clip stream, as the fleet sink does.
type stationDetect struct {
	tr   *tracer
	dets map[string]pipeline.Operator
	cur  pipeline.Operator
	emit func(uint64)
	out  pipeline.EmitterFunc
}

func newStationDetect(tr *tracer) *stationDetect {
	d := &stationDetect{tr: tr, dets: make(map[string]pipeline.Operator)}
	d.out = func(r *record.Record) error {
		if r.Kind == record.KindData && r.Subtype == record.SubtypeAnomaly {
			d.emit(recordKey(r))
		}
		return nil
	}
	return d
}

// consume feeds one record to its station's detector, reporting the key
// of every alert record the detector raises.
func (d *stationDetect) consume(r *record.Record, alert func(uint64)) error {
	if r.Kind == record.KindOpenScope && r.ScopeType == record.ScopeClip {
		station := r.ContextValue(record.CtxStation)
		det, ok := d.dets[station]
		if !ok {
			cd, err := ops.NewChangeDetect(ops.ChangeDetectConfig{})
			if err != nil {
				return err
			}
			det = cd
			if d.tr != nil {
				det = d.tr.wrap([]pipeline.Operator{cd})[0]
			}
			d.dets[station] = det
		}
		d.cur = det
	}
	if d.cur == nil {
		return fmt.Errorf("fleet sink: %s outside a clip", r)
	}
	d.emit = alert
	return d.cur.Process(r, d.out)
}

// recordKey identifies a record's content: header fields that survive
// every hop, and the payload. Seq and SourceID are excluded because
// replication and sharding rewrite them.
func recordKey(r *record.Record) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for _, v := range []uint64{uint64(r.Kind), uint64(r.Subtype), uint64(r.Scope), uint64(r.ScopeType), uint64(r.PayloadType), uint64(len(r.Payload))} {
		h = (h ^ v) * prime
	}
	p := r.Payload
	for len(p) >= 8 {
		h = (h ^ (uint64(p[0]) | uint64(p[1])<<8 | uint64(p[2])<<16 | uint64(p[3])<<24 |
			uint64(p[4])<<32 | uint64(p[5])<<40 | uint64(p[6])<<48 | uint64(p[7])<<56)) * prime
		p = p[8:]
	}
	for _, b := range p {
		h = (h ^ uint64(b)) * prime
	}
	return h
}

func (f *fleet) referenceRate() float64 { return f.refRate }
func (f *fleet) train() error           { return nil }
func (f *fleet) setTracer(tr *tracer)   { f.tr = tr }
func (f *fleet) spheres() int           { return 0 }

// fleetState is one pipeline's sink-side audit for one pass: records
// must arrive exactly once and in the order sent.
type fleetState struct {
	line    *fleetPipe
	t0      atomic.Int64
	measure [2]int // slots in [from, to) are measured

	mu         sync.Mutex
	next       int // slot of the next expected record
	unexpected int
	missing    int
	alerts     []uint64
	lat        []float64
	samples    int64
	last       int64 // job-clock time the last measured record arrived
	delivered  atomic.Int64

	det *stationDetect // sink goroutine only
}

// consume audits one record: it must be the next one sent. A record
// found further ahead marks the ones skipped as missing; a record not
// expected at all (a duplicate, a reordering, a repair) is unexpected.
// Delivered records then go through their station's change detector.
func (s *fleetState) consume(r *record.Record) error {
	k := recordKey(r)
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := s.line.keys
	at := -1
	for i := s.next; i < len(keys) && i < s.next+4*clipRecs; i++ {
		if keys[i] == k {
			at = i
			break
		}
	}
	if at < 0 {
		s.unexpected++
		return nil
	}
	s.missing += at - s.next
	s.next = at + 1
	if at >= s.measure[0] && at < s.measure[1] {
		due := s.t0.Load() + int64(float64(at)*1e9/fleetRate)
		s.last = clock()
		s.lat = append(s.lat, float64(s.last-due)/1e6)
		if r.Kind == record.KindData {
			s.samples += int64(len(r.Payload) / 8)
		}
	}
	s.delivered.Add(1)
	return s.det.consume(r, func(a uint64) { s.alerts = append(s.alerts, a) })
}

func (f *fleet) pipes() []pipeSpec {
	for i, line := range f.lines {
		f.st[i] = &fleetState{line: line, det: newStationDetect(f.tr)}
	}
	return []pipeSpec{
		{
			id: "ha",
			segments: []river.SegmentSpec{
				{Name: "relay", Type: "relay", Replicas: 3},
				{Name: "fwd", Type: "relay"},
			},
			sink: f.st[0].consume,
			unit: "ha-",
		},
		{
			id:       "wide",
			segments: []river.SegmentSpec{{Name: "relay", Type: "relay", Shards: fleetShards}},
			sink:     f.st[1].consume,
			unit:     "wide-",
		},
	}
}

func (f *fleet) drive(c *cluster, seconds float64) (*measured, error) {
	m := &measured{}
	warm := int(warmSeconds * fleetRate)
	total := fleetSlots(seconds)
	end := warm + int(seconds*fleetRate)
	t0 := clock() + int64(50*time.Millisecond)
	outs := make([]*pipeline.StreamOut, len(f.lines))
	gen := make(chan error, len(f.lines))
	var mu sync.Mutex
	for n, line := range f.lines {
		st := f.st[n]
		st.mu.Lock()
		st.measure = [2]int{warm, end}
		st.mu.Unlock()
		st.t0.Store(t0)
		out := pipeline.NewStreamOutBatched(c.coord.PipelineEntryAddr(line.id), record.DefaultBatchConfig())
		defer out.Close()
		outs[n] = out
		go func() {
			var lags []float64
			var ns float64
			for slot := 0; slot < total; slot++ {
				due := t0 + int64(float64(slot)*1e9/fleetRate)
				if d := due - clock(); d > 0 {
					time.Sleep(time.Duration(d))
				}
				r := line.record(slot)
				r.Seq = uint64(slot)
				start := clock()
				if err := out.Consume(r); err != nil {
					gen <- err
					return
				}
				if slot >= warm && slot < end {
					lags = append(lags, float64(start-due)/1e6)
					ns += float64(clock() - start)
				}
			}
			mu.Lock()
			m.genLag = append(m.genLag, lags...)
			m.sendNs += ns
			m.sendRecs += float64(end - warm)
			mu.Unlock()
			gen <- out.Flush()
		}()
	}
	sleepUntil(t0 + int64(warmSeconds*1e9))
	m.a, m.wa, m.eventsA = snapshot(), c.wire(outs...), c.coord.Events().LastSeq()
	stopStatus := sampleStatus(c, &m.statusUs)
	sleepUntil(t0 + int64((warmSeconds+seconds)*1e9))
	m.b, m.wb, m.eventsB = snapshot(), c.wire(outs...), c.coord.Events().LastSeq()
	stopStatus()
	var genErr error
	for range f.lines {
		if err := <-gen; err != nil && genErr == nil {
			genErr = err
		}
	}
	if genErr != nil {
		return nil, genErr
	}
	for _, st := range f.st {
		waitCount(&st.delivered, total)
	}

	m.units = c.settledStatus()
	m.failed = c.replicaLoss(m.units)
	var samples, last int64
	for _, st := range f.st {
		st.mu.Lock()
		lost := st.missing + total - st.next
		m.attempted += total
		m.failed += st.unexpected + lost
		m.accurate += total - lost
		m.judged += total
		// The per-station detectors must raise exactly the reference's
		// alerts over the stream that was sent.
		var want []uint64
		for _, a := range st.line.alerts {
			if a.slot < total {
				want = append(want, a.key)
			}
		}
		m.failed += alertMismatches(st.alerts, want)
		m.lat = append(m.lat, st.lat...)
		samples += st.samples
		last = max(last, st.last)
		fmt.Printf("# %s: %d of %d records delivered in order, %d lost, %d unexpected, %d alerts\n",
			st.line.id, total-lost, total, lost, st.unexpected, len(st.alerts))
		st.mu.Unlock()
	}
	m.audioS = float64(2*(end-warm)) * ops.RecordSamples * (clipRecs - 2) / clipRecs / synth.StandardSampleRate
	m.samplesPerS = deliveredRate(float64(samples), t0+int64(float64(warm)*1e9/fleetRate), last)
	return m, nil
}

// alertMismatches counts the alerts that differ from the reference's,
// position by position, plus any missing or extra ones.
func alertMismatches(got, want []uint64) int {
	n := 0
	for i := range max(len(got), len(want)) {
		if i >= len(got) || i >= len(want) || got[i] != want[i] {
			n++
		}
	}
	return n
}
