package record

import (
	"bytes"
	"testing"
)

// poolSample builds a data record with a recognizable payload.
func poolSample(seq uint64, fill byte, n int) *Record {
	r := NewData(SubtypeAudio)
	r.Seq = seq
	b := make([]byte, n)
	for i := range b {
		b[i] = fill
	}
	r.SetBytes(b)
	return r
}

func TestPoolRoundTrip(t *testing.T) {
	r := GetRecord()
	r.Kind = KindData
	r.Seq = 42
	r.SetBytes([]byte("hello"))
	Release(r)
	got := GetRecord()
	// Whether or not the pool handed back the same object, the record
	// must be header-zeroed with an empty payload.
	if got.Kind != 0 || got.Seq != 0 || got.PayloadType != 0 || len(got.Payload) != 0 {
		t.Fatalf("pooled record not reset: %+v", got)
	}
	Release(got)
	Release(nil) // nil-safe
}

// TestPooledReaderAliasing is the ownership-contract regression test: a
// record decoded from a pooled reader and still held by its owner must
// not be corrupted when other records cycle through the pool — decode →
// release → decode must never alias a held record's storage. Each record
// travels in its own frame, so every Read crosses a frame boundary.
func TestPooledReaderAliasing(t *testing.T) {
	var wire []byte
	for i := 0; i < 3; i++ {
		wire = AppendBatchWire(wire, poolSample(uint64(i), byte('a'+i), 64))
	}
	rd := NewReader(bytes.NewReader(wire))
	rd.SetPooled(true)

	r1, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	held := append([]byte(nil), r1.Payload...) // expected contents of r1

	r2, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	Release(r2) // r2's storage goes back to the pool

	r3, err := rd.Read()
	if err != nil {
		t.Fatal(err)
	}
	// r3 may reuse r2's storage, but never r1's: r1 is still owned here.
	if r1.Seq != 0 || !bytes.Equal(r1.Payload, held) {
		t.Fatalf("held record corrupted after pool cycling: seq=%d payload=%q want %q",
			r1.Seq, r1.Payload, held)
	}
	if r3.Seq != 2 || r3.Payload[0] != 'c' {
		t.Fatalf("third record wrong: seq=%d payload[0]=%q", r3.Seq, r3.Payload[0])
	}
	Release(r1)
	Release(r3)
}

func TestGetCopyIndependent(t *testing.T) {
	src := poolSample(7, 'x', 32)
	c := GetCopy(src)
	if c == src {
		t.Fatal("GetCopy returned the source")
	}
	if c.Seq != 7 || !bytes.Equal(c.Payload, src.Payload) {
		t.Fatalf("copy differs: %+v vs %+v", c, src)
	}
	// Mutating the copy must not touch the source.
	c.Payload[0] = 'y'
	if src.Payload[0] != 'x' {
		t.Fatal("copy aliases source payload")
	}
	Release(c)
}

func TestCloneIntoReusesCapacity(t *testing.T) {
	src := poolSample(9, 'z', 48)
	dst := &Record{Payload: make([]byte, 0, 128)}
	keep := &dst.Payload[:1][0]
	src.CloneInto(dst)
	if &dst.Payload[0] != keep {
		t.Fatal("CloneInto reallocated despite sufficient capacity")
	}
	if dst.Seq != 9 || !bytes.Equal(dst.Payload, src.Payload) {
		t.Fatalf("CloneInto mismatch: %+v", dst)
	}
	// nil payload propagates as nil.
	empty := &Record{Kind: KindControl}
	empty.CloneInto(dst)
	if dst.Payload != nil {
		t.Fatalf("CloneInto of nil payload gave %v", dst.Payload)
	}
}

func TestSettersReuseCapacity(t *testing.T) {
	r := &Record{}
	r.SetFloat64s([]float64{1, 2, 3, 4})
	p0 := &r.Payload[0]
	allocs := testing.AllocsPerRun(100, func() {
		r.SetFloat64s([]float64{5, 6, 7})
	})
	if allocs != 0 {
		t.Fatalf("SetFloat64s with capacity allocated %.1f/op", allocs)
	}
	if &r.Payload[0] != p0 {
		t.Fatal("SetFloat64s reallocated despite capacity")
	}
	v, err := r.Float64s()
	if err != nil || len(v) != 3 || v[0] != 5 {
		t.Fatalf("decode after reuse: %v %v", v, err)
	}
}

func TestAppendDecodersZeroAlloc(t *testing.T) {
	r := &Record{}
	r.SetFloat64s([]float64{1, 2, 3, 4, 5, 6, 7, 8})
	buf := make([]float64, 0, 16)
	allocs := testing.AllocsPerRun(100, func() {
		v, err := r.AppendFloat64s(buf[:0])
		if err != nil || len(v) != 8 {
			t.Fatalf("decode: %v %v", v, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("AppendFloat64s into scratch allocated %.1f/op", allocs)
	}
}

// TestPooledDecodeAllocs pins the steady-state decode cost: reading a
// batch stream through a pooled reader and releasing each record must
// not allocate per record (sync.Pool may be drained by GC mid-run, so a
// small average is tolerated; a per-record regression shows up as ≥1).
func TestPooledDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts under -race; pooled paths allocate by design")
	}
	var buf bytes.Buffer
	w := NewBatchWriter(&buf, PerRecordConfig())
	const n = 64
	for i := 0; i < n; i++ {
		if err := w.Write(poolSample(uint64(i), byte(i), 256)); err != nil {
			t.Fatal(err)
		}
	}
	stream := buf.Bytes()
	rd := NewReader(bytes.NewReader(stream))
	rd.SetPooled(true)
	// Warm the pool and the reader's buffer.
	allocs := testing.AllocsPerRun(20, func() {
		rd.Reset(bytes.NewReader(stream))
		for i := 0; i < n; i++ {
			rec, err := rd.Read()
			if err != nil {
				t.Fatal(err)
			}
			Release(rec)
		}
	})
	if perRecord := allocs / n; perRecord > 0.2 {
		t.Fatalf("pooled decode allocates %.2f/record (%.0f/run), want ~0", perRecord, allocs)
	}
}
