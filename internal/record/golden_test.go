package record

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The golden file pins the wire framing byte-for-byte. A reader from any
// release must keep decoding it, and an encoder change that moves a
// single byte fails the comparison instead of silently forking the
// format. Regenerate (after an intentional, version-bumped format change)
// with:
//
//	go test ./internal/record -run TestGolden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite the golden wire-format files")

// goldenRecords is the fixed corpus behind the golden file. Do not edit:
// testdata/golden_v2.bin encodes exactly these records.
func goldenRecords() []*Record {
	mk := func(kind Kind, subtype, scope uint16, st ScopeType, seq uint64, src uint32, pt PayloadType, payload []byte) *Record {
		return &Record{Kind: kind, Subtype: subtype, Scope: scope, ScopeType: st,
			Seq: seq, SourceID: src, PayloadType: pt, Payload: payload}
	}
	return []*Record{
		mk(KindOpenScope, SubtypeRaw, 1, ScopeClip, 100, 7, PayloadNone, nil),
		mk(KindData, SubtypeAudio, 1, ScopeClip, 101, 7, PayloadPCM16, []byte{0x01, 0x00, 0xFF, 0x7F, 0x00, 0x80}),
		mk(KindData, SubtypeAnomaly, 1, ScopeClip, 102, 9, PayloadFloat64, []byte{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}),
		mk(KindCloseScope, SubtypeRaw, 1, ScopeClip, 103, 9, PayloadNone, nil),
		mk(KindData, SubtypePattern, 0, ScopeNone, 104, 0xDEADBEEF, PayloadBytes, bytes.Repeat([]byte{0xA5}, 100)),
	}
}

func TestGoldenWireFormats(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.bin")
	// Two batches, exercising both a multi-record and a singleton batch in
	// one stream.
	recs := goldenRecords()
	wire := AppendBatchWire(AppendBatchWire(nil, recs[:4]...), recs[4])
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, wire, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	// Encoder direction: today's encoder must reproduce the pinned bytes
	// exactly.
	if !bytes.Equal(wire, want) {
		t.Errorf("encoder output differs from %s: the wire format changed", path)
	}
	// Decoder direction: today's reader must decode the pinned bytes back
	// to the original records.
	rd := NewReader(bytes.NewReader(want))
	for i, wantRec := range recs {
		got, err := rd.Read()
		if err != nil {
			t.Fatalf("golden decode %d: %v", i, err)
		}
		sameRecord(t, got, wantRec, i)
	}
	if _, err := rd.Read(); !errors.Is(err, io.EOF) {
		t.Fatalf("golden trailing data: %v", err)
	}
}
