package timeseries

import (
	"fmt"
	"math"
)

// Bitmap is a SAX time-series bitmap (Kumar et al. 2005): an
// n-dimensional matrix of counts of symbolic subsequences ("grams") of
// length n over an alphabet of size a, flattened to a slice of a^n cells.
// Frequencies are counts divided by the total number of grams, and two
// bitmaps are compared by Euclidean distance between their frequency
// matrices.
type Bitmap struct {
	alphabet int
	gram     int
	counts   []int
	total    int
}

// NewBitmap returns an empty bitmap for subsequences of length gram over
// the given alphabet. gram must be in [1, 4]: a^4 cells is the largest
// matrix that stays cache-friendly for streaming use.
func NewBitmap(alphabet, gram int) (*Bitmap, error) {
	if alphabet < MinAlphabet || alphabet > MaxAlphabet {
		return nil, fmt.Errorf("%w: %d", ErrBadAlphabet, alphabet)
	}
	if gram < 1 || gram > 4 {
		return nil, fmt.Errorf("timeseries: gram length %d not in [1, 4]", gram)
	}
	cells := 1
	for i := 0; i < gram; i++ {
		cells *= alphabet
	}
	return &Bitmap{alphabet: alphabet, gram: gram, counts: make([]int, cells)}, nil
}

// Alphabet returns the alphabet size.
func (b *Bitmap) Alphabet() int { return b.alphabet }

// Gram returns the subsequence length.
func (b *Bitmap) Gram() int { return b.gram }

// Cells returns the number of matrix cells (alphabet^gram).
func (b *Bitmap) Cells() int { return len(b.counts) }

// Total returns the number of grams currently counted.
func (b *Bitmap) Total() int { return b.total }

// index flattens a gram to its cell index. Symbols outside [0, a) are
// clamped.
func (b *Bitmap) index(gram []int) int {
	idx := 0
	for _, s := range gram {
		if s < 0 {
			s = 0
		} else if s >= b.alphabet {
			s = b.alphabet - 1
		}
		idx = idx*b.alphabet + s
	}
	return idx
}

// Inc counts one occurrence of gram. len(gram) must equal Gram().
func (b *Bitmap) Inc(gram []int) {
	if len(gram) != b.gram {
		panic(fmt.Sprintf("timeseries: Bitmap.Inc: gram length %d, want %d", len(gram), b.gram))
	}
	b.inc(b.index(gram))
}

// inc counts one occurrence of the gram whose cell index is i.
func (b *Bitmap) inc(i int) {
	b.counts[i]++
	b.total++
}

// Dec removes one occurrence of gram. Decrementing an empty cell panics:
// it always indicates a bookkeeping bug in the caller's sliding window.
func (b *Bitmap) Dec(gram []int) {
	if len(gram) != b.gram {
		panic(fmt.Sprintf("timeseries: Bitmap.Dec: gram length %d, want %d", len(gram), b.gram))
	}
	b.dec(b.index(gram))
}

// dec removes one occurrence of the gram whose cell index is i, panicking
// on underflow like Dec.
func (b *Bitmap) dec(i int) {
	if b.counts[i] == 0 || b.total == 0 {
		panic("timeseries: Bitmap.Dec: cell underflow")
	}
	b.counts[i]--
	b.total--
}

// AddWord counts every gram of the symbolic word.
func (b *Bitmap) AddWord(word []int) {
	for i := 0; i+b.gram <= len(word); i++ {
		b.Inc(word[i : i+b.gram])
	}
}

// Frequency returns the relative frequency of the cell for gram.
func (b *Bitmap) Frequency(gram []int) float64 {
	if b.total == 0 {
		return 0
	}
	return float64(b.counts[b.index(gram)]) / float64(b.total)
}

// Frequencies returns the full frequency matrix, flattened row-major.
func (b *Bitmap) Frequencies() []float64 {
	out := make([]float64, len(b.counts))
	if b.total == 0 {
		return out
	}
	inv := 1 / float64(b.total)
	for i, c := range b.counts {
		out[i] = float64(c) * inv
	}
	return out
}

// Reset clears all counts.
func (b *Bitmap) Reset() {
	for i := range b.counts {
		b.counts[i] = 0
	}
	b.total = 0
}

// Clone returns a deep copy of the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{alphabet: b.alphabet, gram: b.gram, total: b.total}
	c.counts = make([]int, len(b.counts))
	copy(c.counts, b.counts)
	return c
}

// BitmapDistance returns the Euclidean distance between the frequency
// matrices of two bitmaps, the anomaly measure from Kumar et al.
// (AnomalyDetector maintains the same distance incrementally). The bitmaps
// must have identical shape.
func BitmapDistance(x, y *Bitmap) (float64, error) {
	if x.alphabet != y.alphabet || x.gram != y.gram {
		return 0, fmt.Errorf("timeseries: bitmap shape mismatch: (%d,%d) vs (%d,%d)",
			x.alphabet, x.gram, y.alphabet, y.gram)
	}
	var sum float64
	invX, invY := 0.0, 0.0
	if x.total > 0 {
		invX = 1 / float64(x.total)
	}
	if y.total > 0 {
		invY = 1 / float64(y.total)
	}
	for i := range x.counts {
		d := float64(x.counts[i])*invX - float64(y.counts[i])*invY
		sum += d * d
	}
	return math.Sqrt(sum), nil
}
