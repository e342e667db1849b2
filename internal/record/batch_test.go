package record

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"time"
)

// countingWriter counts Write calls so tests can observe batching.
type countingWriter struct {
	bytes.Buffer
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	return c.Buffer.Write(p)
}

// errWriter fails every write.
type errWriter struct{}

func (errWriter) Write([]byte) (int, error) { return 0, errors.New("sink broken") }

func batchData(v float64) *Record {
	r := NewData(SubtypeAudio)
	r.SetFloat64s([]float64{v})
	return r
}

// readAll decodes every record from b.
func readAll(t *testing.T, b []byte) []*Record {
	t.Helper()
	rd := NewReader(bytes.NewReader(b))
	var out []*Record
	for {
		rec, err := rd.Read()
		if errors.Is(err, io.EOF) {
			return out
		}
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		out = append(out, rec)
	}
}

func TestBatchWriterFlushOnCount(t *testing.T) {
	cw := &countingWriter{}
	bw := NewBatchWriter(cw, BatchConfig{MaxRecords: 4})
	for i := 0; i < 10; i++ {
		if err := bw.Write(batchData(float64(i))); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if cw.writes != 2 {
		t.Errorf("10 records at batch 4: %d writes, want 2 full batches", cw.writes)
	}
	if bw.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", bw.Pending())
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 3 {
		t.Errorf("writes after explicit flush = %d, want 3", cw.writes)
	}
	if got := len(readAll(t, cw.Bytes())); got != 10 {
		t.Errorf("decoded %d records, want 10", got)
	}
	if bw.Count() != 10 || bw.Batches() != 3 {
		t.Errorf("Count=%d Batches=%d, want 10/3", bw.Count(), bw.Batches())
	}
	if bw.BytesWritten() != uint64(cw.Len()) {
		t.Errorf("BytesWritten=%d, want %d", bw.BytesWritten(), cw.Len())
	}
}

func TestBatchWriterFlushOnBoundaries(t *testing.T) {
	cw := &countingWriter{}
	bw := NewBatchWriter(cw, BatchConfig{MaxRecords: 100, FlushOnClose: true, FlushOnControl: true})
	if err := bw.Write(NewOpenScope(ScopeClip, 0)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Write(batchData(1)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 {
		t.Fatalf("premature flush after %d records", bw.Pending())
	}
	// A nested close does not flush; only depth 0 is a delivery boundary.
	inner := NewCloseScope(ScopeEnsemble, 1)
	if err := bw.Write(inner); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 0 {
		t.Error("nested close flushed the batch")
	}
	if err := bw.Write(NewCloseScope(ScopeClip, 0)); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Errorf("top-level close: %d writes, want 1", cw.writes)
	}
	ctl := &Record{Kind: KindControl}
	if err := bw.Write(ctl); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 2 {
		t.Errorf("control record: %d writes, want 2", cw.writes)
	}
}

func TestBatchWriterFlushOnBytesAndAge(t *testing.T) {
	cw := &countingWriter{}
	bw := NewBatchWriter(cw, BatchConfig{MaxRecords: 1000, MaxBytes: 64})
	big := NewData(SubtypeAudio)
	big.SetBytes(make([]byte, 128))
	if err := bw.Write(big); err != nil {
		t.Fatal(err)
	}
	if cw.writes != 1 {
		t.Errorf("oversize batch not flushed on MaxBytes (writes=%d)", cw.writes)
	}

	bw2 := NewBatchWriter(cw, BatchConfig{MaxRecords: 1000, MaxDelay: time.Millisecond})
	if err := bw2.Add(batchData(1)); err != nil {
		t.Fatal(err)
	}
	if bw2.ShouldFlush() {
		t.Error("fresh record already stale")
	}
	time.Sleep(3 * time.Millisecond)
	if !bw2.ShouldFlush() {
		t.Error("record older than MaxDelay not flagged for flush")
	}
	if bw2.Age() < time.Millisecond {
		t.Errorf("Age = %v", bw2.Age())
	}
}

// TestBatchWriterRetargetKeepsPending is the failover contract: a flush
// against a broken output keeps the batch, and SetOutput lets the same
// batch land on a replacement — the mechanism StreamOut uses to carry at
// most one bounded batch across a redirect.
func TestBatchWriterRetargetKeepsPending(t *testing.T) {
	bw := NewBatchWriter(errWriter{}, BatchConfig{MaxRecords: 8})
	for i := 0; i < 3; i++ {
		if err := bw.Add(batchData(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err == nil {
		t.Fatal("flush to broken output succeeded")
	}
	if bw.Pending() != 3 {
		t.Fatalf("failed flush dropped the batch: pending=%d", bw.Pending())
	}
	var good bytes.Buffer
	bw.SetOutput(&good)
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(readAll(t, good.Bytes())); got != 3 {
		t.Errorf("replayed batch decoded to %d records, want 3", got)
	}
	if bw.Pending() != 0 {
		t.Errorf("pending after successful flush = %d", bw.Pending())
	}
}

func TestBatchWriterNoOutput(t *testing.T) {
	bw := NewBatchWriter(nil, DefaultBatchConfig())
	if err := bw.Add(batchData(1)); err != nil {
		t.Fatal(err)
	}
	if err := bw.Flush(); !errors.Is(err, ErrNoOutput) {
		t.Fatalf("flush without output = %v, want ErrNoOutput", err)
	}
	if n := bw.Discard(); n != 1 {
		t.Errorf("Discard = %d, want 1", n)
	}
	if err := bw.Flush(); err != nil {
		t.Errorf("empty flush after discard: %v", err)
	}
}

func TestBatchWriterRejectsInvalid(t *testing.T) {
	bw := NewBatchWriter(&bytes.Buffer{}, DefaultBatchConfig())
	if err := bw.Add(&Record{}); err == nil {
		t.Error("invalid kind accepted")
	}
	huge := NewData(0)
	huge.PayloadType = PayloadBytes
	huge.Payload = make([]byte, MaxPayload+1)
	if err := bw.Add(huge); !errors.Is(err, ErrTooLarge) {
		t.Errorf("oversize payload: %v", err)
	}
	if bw.Pending() != 0 {
		t.Errorf("rejected records buffered: pending=%d", bw.Pending())
	}
}

// TestBatchInteropWithPlainReader proves writer policy is invisible on the
// wire: a stream produced by a mix of batched and per-record writers
// decodes with the ordinary Reader, records in order.
func TestBatchInteropWithPlainReader(t *testing.T) {
	var buf bytes.Buffer
	plain := NewBatchWriter(&buf, PerRecordConfig())
	if err := plain.Write(batchData(0)); err != nil {
		t.Fatal(err)
	}
	bw := NewBatchWriter(&buf, BatchConfig{MaxRecords: 3})
	for i := 1; i <= 4; i++ {
		if err := bw.Write(batchData(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	recs := readAll(t, buf.Bytes())
	if len(recs) != 5 {
		t.Fatalf("decoded %d records, want 5", len(recs))
	}
	for i, r := range recs {
		v, err := r.Float64s()
		if err != nil || len(v) != 1 || v[0] != float64(i) {
			t.Errorf("record %d = %v (%v), want [%d]", i, v, err, i)
		}
	}
}

func TestPerRecordConfigFlushesEveryWrite(t *testing.T) {
	cw := &countingWriter{}
	bw := NewBatchWriter(cw, PerRecordConfig())
	for i := 0; i < 3; i++ {
		if err := bw.Write(batchData(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if cw.writes != 3 {
		t.Errorf("per-record config issued %d writes for 3 records", cw.writes)
	}
}

// failingThenOKWriter fails its first n Writes, then succeeds — the shape
// of a streamout whose downstream moved mid-batch.
type failingThenOKWriter struct {
	fails  int
	writes int
	buf    bytes.Buffer
}

func (f *failingThenOKWriter) Write(p []byte) (int, error) {
	if f.fails > 0 {
		f.fails--
		return 0, errors.New("transient")
	}
	f.writes++
	return f.buf.Write(p)
}

// TestBatchWriterControlInterleaving covers forced flushes interleaved
// with control records: a control record added behind buffered data must
// flush the whole batch — data first, control last, in order — and a
// failed forced flush must keep the batch (control included) intact for
// the retry, so a control record can never be reordered past data or
// lost to a transient output error.
func TestBatchWriterControlInterleaving(t *testing.T) {
	out := &failingThenOKWriter{fails: 1}
	bw := NewBatchWriter(out, BatchConfig{MaxRecords: 100, FlushOnControl: true})
	for i := 0; i < 3; i++ {
		if err := bw.Write(batchData(float64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if out.writes != 0 {
		t.Fatalf("data-only batch flushed early: %d writes", out.writes)
	}
	ctl := &Record{Kind: KindControl}
	if err := bw.Add(ctl); err != nil {
		t.Fatal(err)
	}
	if !bw.ShouldFlush() {
		t.Fatal("control record did not force a flush")
	}
	// First flush attempt hits the transient failure: the batch must
	// survive untouched.
	if err := bw.Flush(); err == nil {
		t.Fatal("flush against failing output succeeded")
	}
	if bw.Pending() != 4 {
		t.Fatalf("failed flush dropped records: pending=%d, want 4", bw.Pending())
	}
	if !bw.ShouldFlush() {
		t.Fatal("force flag lost across a failed flush")
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.writes != 1 {
		t.Fatalf("retried flush issued %d writes, want 1", out.writes)
	}
	recs := readAll(t, out.buf.Bytes())
	if len(recs) != 4 {
		t.Fatalf("decoded %d records, want 4", len(recs))
	}
	for i, r := range recs[:3] {
		if r.Kind != KindData {
			t.Errorf("record %d: %v, want Data", i, r.Kind)
		}
	}
	if recs[3].Kind != KindControl {
		t.Errorf("last record %v, want Control — control must not pass data", recs[3].Kind)
	}
	// More data after the forced flush starts a fresh batch with the
	// force flag cleared.
	if err := bw.Write(batchData(9)); err != nil {
		t.Fatal(err)
	}
	if bw.ShouldFlush() {
		t.Error("force flag leaked into the next batch")
	}
	// With FlushOnControl disabled a control record buffers like data.
	quiet := NewBatchWriter(&bytes.Buffer{}, BatchConfig{MaxRecords: 100})
	if err := quiet.Add(&Record{Kind: KindControl}); err != nil {
		t.Fatal(err)
	}
	if quiet.ShouldFlush() {
		t.Error("control forced a flush with FlushOnControl disabled")
	}
}
