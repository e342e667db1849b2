package timeseries

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// referenceScores recomputes the detector's output naively: symbolize every
// sample with the same running normalization, then for each t build lag and
// lead bitmaps from scratch.
func referenceScores(series []float64, cfg AnomalyConfig) []float64 {
	sax, err := NewSAX(cfg.Alphabet)
	if err != nil {
		panic(err)
	}
	var norm Welford
	symbols := make([]int, len(series))
	for i, x := range series {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			x = norm.Mean()
		}
		norm.Add(x)
		var z float64
		if s := norm.StdDev(); s >= zNormEps {
			z = (x - norm.Mean()) / s
		}
		symbols[i] = sax.Symbol(z)
	}
	w, g := cfg.Window, cfg.Gram
	out := make([]float64, len(series))
	lead, _ := NewBitmap(cfg.Alphabet, g)
	lag, _ := NewBitmap(cfg.Alphabet, g)
	for t := range series {
		if t+1 < 2*w {
			continue
		}
		lead.Reset()
		lag.Reset()
		lead.AddWord(symbols[t+1-w : t+1])
		lag.AddWord(symbols[t+1-2*w : t+1-w])
		d, _ := BitmapDistance(lag, lead)
		out[t] = d
	}
	return out
}

func TestAnomalyDetectorMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	cfgs := []AnomalyConfig{
		{Alphabet: 4, Window: 8, Gram: 1},
		{Alphabet: 4, Window: 8, Gram: 2},
		{Alphabet: 8, Window: 16, Gram: 2},
		{Alphabet: 8, Window: 10, Gram: 3},
		{Alphabet: 3, Window: 5, Gram: 4},
	}
	for _, cfg := range cfgs {
		series := make([]float64, 300)
		for i := range series {
			series[i] = rng.NormFloat64()
			if i > 150 && i < 200 {
				series[i] += 4 * math.Sin(float64(i)*0.7) // injected event
			}
		}
		got, err := Scores(series, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want := referenceScores(series, cfg)
		for i := range want {
			if !almostEqual(got[i], want[i], 1e-12) {
				t.Fatalf("cfg %+v: score[%d] = %v, reference %v", cfg, i, got[i], want[i])
			}
		}
	}
}

// hostileStream returns n samples mixing the signals a field recorder
// produces: noise at varying scales, tonal events, level shifts, flat
// stretches (a saturated or muted input) and bursts of NaN and ±Inf.
func hostileStream(rng *rand.Rand, n int) []float64 {
	out := make([]float64, 0, n)
	scale, level := 1.0, 0.0
	for len(out) < n {
		run := 1 + rng.Intn(400)
		switch k := rng.Intn(10); {
		case k == 0: // flat stretch
			v := level + rng.NormFloat64()*scale
			for i := 0; i < run; i++ {
				out = append(out, v)
			}
		case k == 1: // corrupt burst
			bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
			for i := 0; i < 1+run%20; i++ {
				out = append(out, bad[rng.Intn(len(bad))])
			}
		case k == 2: // tonal event
			f := 0.05 + rng.Float64()
			for i := 0; i < run; i++ {
				out = append(out, level+4*scale*math.Sin(f*float64(i))+rng.NormFloat64()*scale)
			}
		case k == 3: // level or scale shift
			level += rng.NormFloat64() * 5
			scale = math.Pow(10, float64(rng.Intn(5)-2))
		default: // noise
			for i := 0; i < run; i++ {
				out = append(out, level+rng.NormFloat64()*scale)
			}
		}
	}
	return out[:n]
}

// TestAnomalyDetectorLongStreamExact runs the detector over long hostile
// streams for gram lengths 1-3 and alphabets 3-16 and compares every
// score with the from-scratch reference. The incremental distance is
// kept in integers, so it must not drift: scores agree to 1e-12 at the
// end of the stream as at its start, and ok flips exactly at warm-up.
func TestAnomalyDetectorLongStreamExact(t *testing.T) {
	const n = 200_000
	cfgs := []AnomalyConfig{
		{Alphabet: 3, Window: 12, Gram: 3},
		{Alphabet: 4, Window: 9, Gram: 3},
		{Alphabet: 5, Window: 20, Gram: 2},
		{Alphabet: 6, Window: 16, Gram: 3},
		{Alphabet: 8, Window: 25, Gram: 1},
		{Alphabet: 8, Window: 100, Gram: 1},
		{Alphabet: 16, Window: 30, Gram: 2},
		{Alphabet: 16, Window: 40, Gram: 1},
	}
	for ci, cfg := range cfgs {
		t.Run(fmt.Sprintf("a%d-w%d-g%d", cfg.Alphabet, cfg.Window, cfg.Gram), func(t *testing.T) {
			t.Parallel()
			series := hostileStream(rand.New(rand.NewSource(int64(100+ci))), n)
			want := referenceScores(series, cfg)
			d, err := NewAnomalyDetector(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range series {
				got, ok := d.Push(x)
				if wantOK := i+1 >= 2*cfg.Window; ok != wantOK {
					t.Fatalf("sample %d: ok = %v, want %v", i, ok, wantOK)
				}
				if math.Abs(got-want[i]) > 1e-12 {
					t.Fatalf("score[%d] = %v, reference %v", i, got, want[i])
				}
			}
		})
	}
}

// TestAnomalyDetectorReset pins that a reset detector scores a stream
// exactly as a fresh one does.
func TestAnomalyDetectorReset(t *testing.T) {
	cfg := AnomalyConfig{Alphabet: 5, Window: 20, Gram: 2}
	rng := rand.New(rand.NewSource(4))
	used, _ := NewAnomalyDetector(cfg)
	for _, x := range hostileStream(rng, 1000) {
		used.Push(x)
	}
	used.Reset()
	fresh, _ := NewAnomalyDetector(cfg)
	for i, x := range hostileStream(rng, 2000) {
		a, okA := used.Push(x)
		b, okB := fresh.Push(x)
		if a != b || okA != okB {
			t.Fatalf("sample %d: reset detector (%v, %v), fresh (%v, %v)", i, a, okA, b, okB)
		}
	}
}

func TestAnomalyDetectorWarmup(t *testing.T) {
	d, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 4, Window: 10, Gram: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 19; i++ {
		if _, ok := d.Push(rng.NormFloat64()); ok {
			t.Fatalf("detector warm after %d samples", i+1)
		}
		if d.Warm() {
			t.Fatalf("Warm() true after %d samples", i+1)
		}
	}
	if _, ok := d.Push(rng.NormFloat64()); !ok {
		t.Error("detector should be warm after 2*Window samples")
	}
	if !d.Warm() {
		t.Error("Warm() should be true")
	}
}

func TestAnomalyDetectorDetectsChange(t *testing.T) {
	// Steady noise, then a loud structured tone: the score during the tone
	// onset should exceed the steady-state score by a wide margin.
	rng := rand.New(rand.NewSource(8))
	cfg := AnomalyConfig{Alphabet: 8, Window: 100, Gram: 2}
	const n = 4000
	series := make([]float64, n)
	for i := range series {
		series[i] = rng.NormFloat64() * 0.1
		if i >= 2000 && i < 2600 {
			series[i] += 2 * math.Sin(2*math.Pi*float64(i)/20)
		}
	}
	scores, err := Scores(series, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var steady, onset float64
	for i := 1000; i < 1900; i++ {
		steady = math.Max(steady, scores[i])
	}
	for i := 2050; i < 2300; i++ {
		onset = math.Max(onset, scores[i])
	}
	if onset < steady*2 {
		t.Errorf("onset score %v not clearly above steady max %v", onset, steady)
	}
}

func TestAnomalyDetectorHandlesNaNInf(t *testing.T) {
	d, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 4, Window: 5, Gram: 2})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{1, math.NaN(), 2, math.Inf(1), 3, math.Inf(-1), 4, 5, 6, 7, 8, 9, 10}
	for _, x := range vals {
		s, _ := d.Push(x)
		if math.IsNaN(s) || math.IsInf(s, 0) {
			t.Fatalf("score became non-finite after pushing %v", x)
		}
	}
}

func TestAnomalyDetectorConstantSignal(t *testing.T) {
	d, _ := NewAnomalyDetector(AnomalyConfig{Alphabet: 8, Window: 10, Gram: 2})
	for i := 0; i < 100; i++ {
		s, ok := d.Push(5.0)
		if ok && s != 0 {
			t.Fatalf("constant signal should score 0, got %v", s)
		}
	}
}

func TestAnomalyConfigValidation(t *testing.T) {
	if _, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 8, Window: 2, Gram: 3}); err == nil {
		t.Error("gram > window should be rejected")
	}
	if _, err := NewAnomalyDetector(AnomalyConfig{Alphabet: 1, Window: 10, Gram: 1}); err == nil {
		t.Error("alphabet 1 should be rejected")
	}
	d, err := NewAnomalyDetector(AnomalyConfig{})
	if err != nil {
		t.Fatalf("zero config should apply defaults: %v", err)
	}
	cfg := d.Config()
	if cfg.Alphabet != 8 || cfg.Window != 100 || cfg.Gram != 1 {
		t.Errorf("defaults = %+v", cfg)
	}
}

func TestDefaultAnomalyConfigMatchesPaper(t *testing.T) {
	cfg := DefaultAnomalyConfig()
	if cfg.Alphabet != 8 {
		t.Errorf("paper uses SAX alphabet 8, got %d", cfg.Alphabet)
	}
	if cfg.Window != 100 {
		t.Errorf("paper uses anomaly window 100, got %d", cfg.Window)
	}
}

// Property: scores are always in [0, sqrt(2)] and finite for arbitrary
// finite input.
func TestQuickAnomalyScoreBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 20; trial++ {
		cfg := AnomalyConfig{
			Alphabet: 2 + rng.Intn(10),
			Window:   4 + rng.Intn(30),
			Gram:     1 + rng.Intn(3),
		}
		d, err := NewAnomalyDetector(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			x := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(6)-3))
			s, ok := d.Push(x)
			if !ok {
				continue
			}
			if s < 0 || s > math.Sqrt2+1e-9 || math.IsNaN(s) {
				t.Fatalf("trial %d cfg %+v: score %v out of range", trial, cfg, s)
			}
		}
	}
}

func BenchmarkAnomalyDetectorPush(b *testing.B) {
	d, err := NewAnomalyDetector(DefaultAnomalyConfig())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	samples := make([]float64, 4096)
	for i := range samples {
		samples[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Push(samples[i&4095])
	}
}
