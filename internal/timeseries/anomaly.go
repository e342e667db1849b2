package timeseries

import (
	"fmt"
	"math"
)

// AnomalyConfig parameterizes the streaming SAX-bitmap anomaly detector.
// The defaults reproduce the settings the paper used for environmental
// acoustics: alphabet 8, anomaly window 100 samples, bigram bitmaps.
type AnomalyConfig struct {
	// Alphabet is the SAX alphabet size (paper: 8).
	Alphabet int
	// Window is the number of samples per bitmap; the detector compares a
	// "lag" bitmap over samples [t-2W+1, t-W] with a "lead" bitmap over
	// [t-W+1, t] (paper: 100).
	Window int
	// Gram is the symbolic subsequence length counted in each bitmap
	// (Kumar et al. use 1-3 symbols; default 1 — see DefaultAnomalyConfig).
	Gram int
}

// DefaultAnomalyConfig returns the paper's parameters: alphabet 8 and a
// 100-sample anomaly window. Unigram bitmaps are the default because the
// 100-sample window supports only ~100 gram observations: 8 cells give a
// stable frequency estimate where 64 bigram cells drown the signal in
// sampling noise (see BenchmarkAblationSAXParams for the sweep).
func DefaultAnomalyConfig() AnomalyConfig {
	return AnomalyConfig{Alphabet: 8, Window: 100, Gram: 1}
}

func (c *AnomalyConfig) validate() error {
	if c.Alphabet == 0 {
		c.Alphabet = 8
	}
	if c.Window == 0 {
		c.Window = 100
	}
	if c.Gram == 0 {
		c.Gram = 1
	}
	if c.Window < 0 {
		return ErrBadWindow
	}
	if c.Gram > c.Window {
		return fmt.Errorf("timeseries: gram %d exceeds window %d", c.Gram, c.Window)
	}
	return nil
}

// AnomalyDetector computes a streaming SAX-bitmap anomaly score: each
// incoming sample is symbolized against running signal statistics, and the
// score at time t is the Euclidean distance between the bitmap of the most
// recent W symbols (the "lead" window) and the bitmap of the W symbols
// before those (the "lag" window). A distinct change in signal behaviour —
// the onset of a bird vocalization over steady ambient noise — drives the
// two bitmaps apart.
//
// Both bitmaps and the distance between them are maintained
// incrementally. Once warm, each window holds exactly W-g+1 grams, so the
// distance is sqrt(ssd)/(W-g+1), where ssd = Σ(lead[c]-lag[c])² is an
// integer. A push changes at most four cells by ±1 each, and each change
// moves ssd by an exact integer, so ssd never drifts and needs no periodic
// recompute. The ring stores each gram's cell index rather than its
// symbols, so Push costs O(1) whatever the window size, alphabet and gram
// length. A single scan of the time series therefore suffices, which is
// what makes ensemble extraction viable on unbounded streams.
//
// AnomalyDetector is not safe for concurrent use.
type AnomalyDetector struct {
	cfg  AnomalyConfig
	sax  *SAX
	lag  *Bitmap
	lead *Bitmap

	// ring holds the cell indices of the last 2W+1 grams, indexed by the
	// age of each gram's newest symbol, so the gram departing the lag
	// window (age 2W-g+1) is still addressable. The first g-1 grams after
	// a reset are partial; no window ever counts them.
	ring []int
	head int // next write position
	gram int // cell index of the newest gram
	seen uint64

	// ssd is Σ(lead[c]-lag[c])² over all cells, exact once warm.
	ssd   int
	grams float64 // grams per window: W-g+1

	norm Welford
}

// NewAnomalyDetector returns a detector with the given configuration.
func NewAnomalyDetector(cfg AnomalyConfig) (*AnomalyDetector, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	sax, err := NewSAX(cfg.Alphabet)
	if err != nil {
		return nil, err
	}
	lag, err := NewBitmap(cfg.Alphabet, cfg.Gram)
	if err != nil {
		return nil, err
	}
	lead, _ := NewBitmap(cfg.Alphabet, cfg.Gram)
	return &AnomalyDetector{
		cfg:   cfg,
		sax:   sax,
		lag:   lag,
		lead:  lead,
		ring:  make([]int, 2*cfg.Window+1),
		grams: float64(cfg.Window - cfg.Gram + 1),
	}, nil
}

// Config returns the detector's configuration (with defaults resolved).
func (d *AnomalyDetector) Config() AnomalyConfig { return d.cfg }

// Warm reports whether the detector has seen enough samples (2*Window) to
// produce scores.
func (d *AnomalyDetector) Warm() bool { return d.seen >= uint64(2*d.cfg.Window) }

// Reset returns the detector to its just-constructed state, reusing its
// storage.
func (d *AnomalyDetector) Reset() {
	d.head, d.gram, d.seen, d.ssd = 0, 0, 0, 0
	d.norm.Reset()
}

// gramAt returns the cell index of the gram whose newest symbol has the
// given age: age 0 is the newest gram, age 1 the one before it, and so
// on. Valid for age < min(seen, len(ring)).
func (d *AnomalyDetector) gramAt(age int) int {
	i := d.head - 1 - age
	if i < 0 {
		i += len(d.ring)
	}
	return d.ring[i]
}

// step accounts for the lead-minus-lag difference of cell c moving by s
// (±1) in ssd: (diff+s)² - diff² = 2·s·diff + 1. It must run before the
// count changes.
func (d *AnomalyDetector) step(c, s int) {
	d.ssd += 2*s*(d.lead.counts[c]-d.lag.counts[c]) + 1
}

// Push feeds one sample and returns the current anomaly score. ok is false
// until the detector is warm. NaN and infinite samples are treated as the
// running mean (symbolized mid-scale) so corrupt readings do not poison
// the window.
func (d *AnomalyDetector) Push(x float64) (score float64, ok bool) {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		x = d.norm.Mean()
	}
	d.norm.Add(x)
	sigma := d.norm.StdDev()
	var z float64
	if sigma >= zNormEps {
		z = (x - d.norm.Mean()) / sigma
	}
	// The newest gram's cell index is the previous one shifted up by one
	// symbol, its oldest symbol dropped, plus the new symbol.
	sym := d.sax.Symbol(z)
	if d.cfg.Gram > 1 {
		sym += d.gram * d.cfg.Alphabet % len(d.lag.counts)
	}
	d.gram = sym
	d.ring[d.head] = sym
	if d.head++; d.head == len(d.ring) {
		d.head = 0
	}
	d.seen++

	w, g := d.cfg.Window, d.cfg.Gram
	switch {
	case d.seen < uint64(2*w):
		return 0, false
	case d.seen == uint64(2*w):
		d.rebuild()
	default:
		// The windows slid by one symbol. In ages relative to the new
		// newest symbol (age 0), the lead window covers ages [0, W-1] and
		// contains grams at ages [0, W-g]; the lag window covers
		// [W, 2W-1] with grams at ages [W, 2W-g].
		c := d.gramAt(0) // entered lead
		d.step(c, 1)
		d.lead.inc(c)
		c = d.gramAt(w - g + 1) // left lead
		d.step(c, -1)
		d.lead.dec(c)
		c = d.gramAt(w) // entered lag
		d.step(c, -1)
		d.lag.inc(c)
		c = d.gramAt(2*w - g + 1) // left lag
		d.step(c, 1)
		d.lag.dec(c)
	}
	return math.Sqrt(float64(d.ssd)) / d.grams, true
}

// rebuild recomputes both bitmaps and ssd from the ring at first full
// occupancy.
func (d *AnomalyDetector) rebuild() {
	w, g := d.cfg.Window, d.cfg.Gram
	d.lag.Reset()
	d.lead.Reset()
	for a := 0; a+g <= w; a++ {
		d.lead.inc(d.gramAt(a))
	}
	for a := w; a+g <= 2*w; a++ {
		d.lag.inc(d.gramAt(a))
	}
	d.ssd = 0
	for c, n := range d.lead.counts {
		diff := n - d.lag.counts[c]
		d.ssd += diff * diff
	}
}

// Scores runs the detector over a whole series and returns one score per
// sample; samples before warm-up score 0. It is a convenience for batch
// analysis and testing — streaming callers should use Push.
func Scores(series []float64, cfg AnomalyConfig) ([]float64, error) {
	d, err := NewAnomalyDetector(cfg)
	if err != nil {
		return nil, err
	}
	out := make([]float64, len(series))
	for i, x := range series {
		if s, ok := d.Push(x); ok {
			out[i] = s
		}
	}
	return out, nil
}
