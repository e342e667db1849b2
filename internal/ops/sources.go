// Package ops implements the concrete Dynamic River operators of the
// paper's acoustic pipeline (Figure 5): sources that encapsulate clips as
// scoped record streams (wav2rec, datafeed), the ensemble-extraction
// segment (saxanomaly, trigger, cutter), the spectral segment (reslice,
// welchwindow, float2cplx, dft, cabs, cutout, paa, rec2vect) and sinks
// (readout, collectors).
package ops

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/pipeline"
	"repro/internal/record"
	"repro/internal/synth"
	"repro/internal/wav"
)

// RecordSamples is the number of audio samples carried per data record,
// chosen so 3 records of spectral data span exactly 0.125 s at the
// standard sample rate (the paper's pattern duration).
const RecordSamples = 1024

// Clip couples PCM samples with the metadata carried in its scope context.
type Clip struct {
	ID         string
	Station    string
	SampleRate float64
	Samples    []float64
	// Species optionally carries ground truth for labelled datasets; it
	// propagates in the clip scope context.
	Species string
}

// ClipSource emits a sequence of clips, each as an OpenScope(clip) record
// with context, data records of RecordSamples samples, and a CloseScope —
// the wav2rec encapsulation of the paper.
type ClipSource struct {
	clips []Clip
}

// NewClipSource returns a source over the given clips.
func NewClipSource(clips ...Clip) *ClipSource { return &ClipSource{clips: clips} }

// Name implements pipeline.Source.
func (s *ClipSource) Name() string { return "clipsource" }

// Run implements pipeline.Source.
func (s *ClipSource) Run(out pipeline.Emitter) error {
	for i := range s.clips {
		if err := EmitClip(out, &s.clips[i]); err != nil {
			return err
		}
	}
	return nil
}

// EmitClip writes one clip to the emitter as a scoped record stream.
func EmitClip(out pipeline.Emitter, c *Clip) error {
	if c.SampleRate <= 0 {
		return fmt.Errorf("ops: clip %q: sample rate %v must be positive", c.ID, c.SampleRate)
	}
	ctx := map[string]string{
		record.CtxSampleRate: strconv.FormatFloat(c.SampleRate, 'f', -1, 64),
		record.CtxChannels:   "1",
	}
	if c.ID != "" {
		ctx[record.CtxClipID] = c.ID
	}
	if c.Station != "" {
		ctx[record.CtxStation] = c.Station
	}
	if c.Species != "" {
		ctx[record.CtxSpecies] = c.Species
	}
	open := record.NewOpenScope(record.ScopeClip, 0)
	open.SetContext(ctx)
	if err := out.Emit(open); err != nil {
		return err
	}
	for start := 0; start < len(c.Samples); start += RecordSamples {
		end := start + RecordSamples
		if end > len(c.Samples) {
			end = len(c.Samples)
		}
		r := record.NewData(record.SubtypeAudio)
		r.Scope = 1
		r.ScopeType = record.ScopeClip
		r.SetFloat64s(c.Samples[start:end])
		if err := out.Emit(r); err != nil {
			return err
		}
	}
	return out.Emit(record.NewCloseScope(record.ScopeClip, 0))
}

// StationSource generates clips from a synthetic sensor station, emitting
// ClipCount clips (the field deployment's periodic capture, compressed in
// time). Pace, when set, sleeps that long after every record so the
// stream approximates a live sensor instead of saturating the pipe —
// load experiments that watch queue depth need a baseline below the
// transport's backpressure ceiling.
type StationSource struct {
	Station   *synth.Station
	ClipCount int
	Pace      time.Duration
}

// pacedEmitter throttles an emitter by sleeping after every record.
type pacedEmitter struct {
	inner pipeline.Emitter
	d     time.Duration
}

func (p pacedEmitter) Emit(r *record.Record) error {
	if err := p.inner.Emit(r); err != nil {
		return err
	}
	time.Sleep(p.d)
	return nil
}

// Name implements pipeline.Source.
func (s *StationSource) Name() string { return "station(" + s.Station.Name + ")" }

// Run implements pipeline.Source.
func (s *StationSource) Run(out pipeline.Emitter) error {
	if s.Pace > 0 {
		out = pacedEmitter{inner: out, d: s.Pace}
	}
	for i := 0; i < s.ClipCount; i++ {
		clip, id, err := s.Station.NextClip()
		if err != nil {
			return fmt.Errorf("ops: station %s: %w", s.Station.Name, err)
		}
		c := Clip{
			ID:         id,
			Station:    s.Station.Name,
			SampleRate: clip.SampleRate,
			Samples:    clip.Samples,
		}
		if err := EmitClip(out, &c); err != nil {
			return err
		}
	}
	return nil
}

// WAVSource decodes a WAV stream (as the paper's wav2rec does) and emits
// it as a single scoped clip. Multi-channel input is mixed down to mono.
type WAVSource struct {
	R      io.Reader
	ClipID string
}

// Name implements pipeline.Source.
func (s *WAVSource) Name() string { return "wav2rec" }

// Run implements pipeline.Source.
func (s *WAVSource) Run(out pipeline.Emitter) error {
	f, samples, err := wav.Decode(s.R)
	if err != nil {
		return fmt.Errorf("ops: wav2rec: %w", err)
	}
	mono := make([]float64, 0, len(samples)/f.Channels)
	for i := 0; i+f.Channels <= len(samples); i += f.Channels {
		var sum float64
		for c := 0; c < f.Channels; c++ {
			sum += float64(samples[i+c]) / 32768
		}
		mono = append(mono, sum/float64(f.Channels))
	}
	c := Clip{ID: s.ClipID, SampleRate: float64(f.SampleRate), Samples: mono}
	return EmitClip(out, &c)
}

// DataFeed replays a stored record stream (written by Readout), the
// paper's "data feed ... to read clips from storage".
type DataFeed struct {
	R io.Reader
}

// Name implements pipeline.Source.
func (s *DataFeed) Name() string { return "datafeed" }

// Run implements pipeline.Source.
func (s *DataFeed) Run(out pipeline.Emitter) error {
	rd := record.NewReader(s.R)
	for {
		rec, err := rd.Read()
		if err != nil {
			if err == io.EOF {
				return nil
			}
			return fmt.Errorf("ops: datafeed: %w", err)
		}
		if err := out.Emit(rec); err != nil {
			return err
		}
	}
}

// Readout persists a record stream to a writer for later analysis — the
// paper keeps a copy of the raw data before further processing.
type Readout struct {
	w *record.BatchWriter
}

// NewReadout returns a sink writing the wire encoding of every record,
// one frame per record so the writer holds nothing back.
func NewReadout(w io.Writer) *Readout {
	return &Readout{w: record.NewBatchWriter(w, record.PerRecordConfig())}
}

// Name implements pipeline.Sink.
func (s *Readout) Name() string { return "readout" }

// Consume implements pipeline.Sink.
func (s *Readout) Consume(r *record.Record) error { return s.w.Write(r) }

// Count returns the number of records written.
func (s *Readout) Count() uint64 { return s.w.Count() }
