package ops

import (
	"math"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/record"
)

func runDetect(t *testing.T, o *ChangeDetect, recs []*record.Record) []*record.Record {
	t.Helper()
	var out []*record.Record
	emit := pipeline.EmitterFunc(func(r *record.Record) error {
		out = append(out, r)
		return nil
	})
	for _, r := range recs {
		if err := o.Process(r, emit); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func audioRecord(amp float64, n int) *record.Record {
	r := record.NewData(record.SubtypeAudio)
	vals := make([]float64, n)
	for i := range vals {
		// Alternating-sign sine-ish samples with RMS ~ amp/sqrt(2).
		vals[i] = amp * math.Sin(float64(i))
	}
	r.SetFloat64s(vals)
	return r
}

// TestChangeDetectAlertsOnLevelShift feeds quiet audio then a sustained
// louder signal and expects pass-through plus at least one alert record.
func TestChangeDetectAlertsOnLevelShift(t *testing.T) {
	o, err := NewChangeDetect(ChangeDetectConfig{Warmup: 16})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*record.Record
	for i := 0; i < 40; i++ {
		recs = append(recs, audioRecord(1.0, 64))
	}
	for i := 0; i < 40; i++ {
		recs = append(recs, audioRecord(4.0, 64))
	}
	out := runDetect(t, o, recs)
	if o.Alerts() == 0 {
		t.Fatal("no alerts after a 4x sustained RMS shift")
	}
	if len(out) != len(recs)+int(o.Alerts()) {
		t.Fatalf("emitted %d records, want %d pass-through + %d alerts",
			len(out), len(recs), o.Alerts())
	}
	// The first emitted record must be the first input, unchanged.
	if out[0] != recs[0] {
		t.Fatal("pass-through record was replaced")
	}
	// Find an alert and check its shape.
	var alert *record.Record
	for _, r := range out {
		if r.Subtype == record.SubtypeAnomaly {
			alert = r
			break
		}
	}
	if alert == nil {
		t.Fatal("alert counter moved but no SubtypeAnomaly record emitted")
	}
	vals, err := alert.Float64s()
	if err != nil || len(vals) != 2 {
		t.Fatalf("alert payload: %v, %v (want {value, stat})", vals, err)
	}
	if vals[0] < 2 { // RMS of the loud regime ~ 4/sqrt(2)
		t.Errorf("alert value = %g, want the loud-regime RMS", vals[0])
	}
}

// TestChangeDetectQuietStreamStaysQuiet checks a stationary stream never
// alarms, and non-data records pass through untouched.
// TestChangeDetectAlertScopeAfterRecycle pins the ownership contract:
// Emit hands the triggering record downstream, and a pooled StreamOut
// recycles it on return, so the alert must carry the scope captured
// before the handoff, not whatever the recycled record holds after it.
func TestChangeDetectAlertScopeAfterRecycle(t *testing.T) {
	o, err := NewChangeDetect(ChangeDetectConfig{Warmup: 16})
	if err != nil {
		t.Fatal(err)
	}
	type seen struct {
		subtype, scope uint16
		scopeType      record.ScopeType
	}
	var out []seen
	emit := pipeline.EmitterFunc(func(r *record.Record) error {
		out = append(out, seen{r.Subtype, r.Scope, r.ScopeType})
		record.Release(r) // the downstream owner recycles at once
		return nil
	})
	for i := 0; i < 80; i++ {
		amp := 1.0
		if i >= 40 {
			amp = 4.0
		}
		r := audioRecord(amp, 64)
		r.Scope = uint16(1 + i)
		r.ScopeType = record.ScopeClip
		if err := o.Process(r, emit); err != nil {
			t.Fatal(err)
		}
	}
	if o.Alerts() == 0 {
		t.Fatal("no alerts after a 4x sustained RMS shift")
	}
	for i, s := range out {
		if s.subtype != record.SubtypeAnomaly {
			continue
		}
		trigger := out[i-1]
		if s.scope != trigger.scope || s.scopeType != trigger.scopeType {
			t.Fatalf("alert %d carries scope %d/%v, want its trigger's %d/%v",
				i, s.scope, s.scopeType, trigger.scope, trigger.scopeType)
		}
	}
}

func TestChangeDetectQuietStreamStaysQuiet(t *testing.T) {
	o, err := NewChangeDetect(ChangeDetectConfig{Warmup: 16, MinSigma: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	recs := []*record.Record{record.NewOpenScope(record.ScopeClip, 0)}
	for i := 0; i < 200; i++ {
		recs = append(recs, audioRecord(1.0, 64))
	}
	recs = append(recs, record.NewCloseScope(record.ScopeClip, 0))
	out := runDetect(t, o, recs)
	if o.Alerts() != 0 {
		t.Fatalf("stationary stream raised %d alerts", o.Alerts())
	}
	if len(out) != len(recs) {
		t.Fatalf("emitted %d, want %d", len(out), len(recs))
	}
}

// TestChangeDetectPageHinkleyAndFeatures exercises the alternative
// detector and feature reducers, plus config validation.
func TestChangeDetectPageHinkleyAndFeatures(t *testing.T) {
	o, err := NewChangeDetect(ChangeDetectConfig{
		Detector: "page-hinkley", Feature: "mean", Warmup: 16,
	})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*record.Record
	for i := 0; i < 40; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{1, 1.01, 0.99})
		recs = append(recs, r)
	}
	for i := 0; i < 40; i++ {
		r := record.NewData(record.SubtypeAudio)
		r.SetFloat64s([]float64{5, 5.01, 4.99})
		recs = append(recs, r)
	}
	runDetect(t, o, recs)
	if o.Alerts() == 0 {
		t.Fatal("page-hinkley missed an upward mean shift")
	}

	if _, err := NewChangeDetect(ChangeDetectConfig{Detector: "nope"}); err == nil {
		t.Fatal("unknown detector accepted")
	}
	if _, err := NewChangeDetect(ChangeDetectConfig{Feature: "nope"}); err == nil {
		t.Fatal("unknown feature accepted")
	}
}

// TestChangeDetectImplementsAlertCounter pins the interface wiring that
// carries alert counts into heartbeats.
func TestChangeDetectImplementsAlertCounter(t *testing.T) {
	o, err := NewChangeDetect(ChangeDetectConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var _ pipeline.AlertCounter = o
	var _ pipeline.Operator = o
}
