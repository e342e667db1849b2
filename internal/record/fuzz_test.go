package record

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// Fuzz targets for the wire codec. FuzzReader throws arbitrary bytes at
// the decoder — it must terminate without panicking and without handing
// back invalid records, whatever the input claims about lengths, counts,
// or checksums. FuzzBatchRoundTrip fuzzes the field space and checks a
// batch frame decodes back to the exact input. Seed corpus lives in
// testdata/fuzz/ (regenerate with -update-golden); CI runs each target
// briefly on every push.

// fuzzReaderSeeds returns the committed seed inputs for FuzzReader:
// a well-formed stream plus mutations that aim at each validation branch
// (bad magic, bad header CRC, bad batch CRC, torn frame, absurd lengths,
// a DRV1 frame between batches, a torn header after a good frame).
func fuzzReaderSeeds(t testing.TB) [][]byte {
	recs := v2TestRecords(4)
	wire := AppendBatchWire(nil, recs...)

	badBatchCRC := append([]byte{}, wire...)
	badBatchCRC[len(badBatchCRC)-1] ^= 0xFF
	badHdrCRC := append([]byte{}, wire...)
	badHdrCRC[10] ^= 0xFF
	badLen := append([]byte{}, wire...)
	putU32(badLen[6:], 0xFFFFFFFF)
	torn := wire[:len(wire)/2]
	garbagePrefix := append([]byte("DRVX\x00\x01garbage DRV"), wire...)
	tornHeader := append(append([]byte{}, wire...), wire[:batchHdrSize-2]...)

	return [][]byte{
		wire, badBatchCRC, badHdrCRC, badLen, torn, garbagePrefix,
		[]byte("DRV1"), []byte("DRV2"), {},
		drv1Between(recs[:2], recs[2:]), tornHeader,
	}
}

func FuzzReader(f *testing.F) {
	for _, s := range fuzzReaderSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mode := range []struct {
			strict, pooled bool
		}{{false, false}, {false, true}, {true, false}} {
			rd := NewReaderSize(bytes.NewReader(data), 512)
			rd.SetStrict(mode.strict)
			rd.SetPooled(mode.pooled)
			for i := 0; i <= len(data); i++ { // decoder must terminate
				r, err := rd.Read()
				if err != nil {
					break
				}
				if !r.Kind.Valid() || len(r.Payload) > MaxPayload {
					t.Fatalf("decoder produced invalid record: %+v", r)
				}
				if mode.pooled {
					Release(r)
				}
			}
		}
	})
}

func FuzzBatchRoundTrip(f *testing.F) {
	f.Add([]byte("pcm"), []byte(""), uint16(1), uint64(42), uint32(7))
	f.Add([]byte{}, bytes.Repeat([]byte{0xA5}, 5000), uint16(4), uint64(0), uint32(0xFFFFFFFF))
	f.Add([]byte{0, 1}, []byte{2, 3}, uint16(100), uint64(1<<60), uint32(1))
	f.Fuzz(func(t *testing.T, p1, p2 []byte, subtype uint16, seq uint64, src uint32) {
		in := []*Record{
			{Kind: KindData, Subtype: subtype, Scope: 1, ScopeType: ScopeClip,
				Seq: seq, SourceID: src, PayloadType: PayloadBytes, Payload: p1},
			{Kind: KindCloseScope, Subtype: subtype, Scope: 1, ScopeType: ScopeClip,
				Seq: seq + 1, SourceID: src, PayloadType: PayloadNone, Payload: p2},
		}
		rd := NewReader(bytes.NewReader(AppendBatchWire(nil, in...)))
		rd.SetStrict(true)
		for i, want := range in {
			got, err := rd.Read()
			if err != nil {
				t.Fatalf("decode %d: %v", i, err)
			}
			sameRecord(t, got, want, i)
		}
		if _, err := rd.Read(); !errors.Is(err, io.EOF) {
			t.Fatalf("trailing: %v", err)
		}
	})
}

// TestFuzzCorpusCommitted regenerates (under -update-golden) and then
// verifies the committed seed-corpus files, so the seeds evolve with the
// format instead of rotting.
func TestFuzzCorpusCommitted(t *testing.T) {
	writeSeed := func(dir, name string, args ...any) {
		path := filepath.Join("testdata", "fuzz", dir, name)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			buf.WriteString("go test fuzz v1\n")
			for _, a := range args {
				switch v := a.(type) {
				case []byte:
					fmt.Fprintf(&buf, "[]byte(%q)\n", v)
				default:
					fmt.Fprintf(&buf, "%T(%v)\n", v, v)
				}
			}
			if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := os.Stat(path); err != nil {
			t.Errorf("missing committed fuzz seed: %v (run with -update-golden)", err)
		}
	}
	for i, s := range fuzzReaderSeeds(t) {
		writeSeed("FuzzReader", fmt.Sprintf("seed_%02d", i), s)
	}
	writeSeed("FuzzBatchRoundTrip", "seed_00",
		[]byte("pcm"), []byte(""), uint16(1), uint64(42), uint32(7))
	writeSeed("FuzzBatchRoundTrip", "seed_01",
		[]byte{}, bytes.Repeat([]byte{0xA5}, 5000), uint16(4), uint64(0), uint32(0xFFFFFFFF))
}
