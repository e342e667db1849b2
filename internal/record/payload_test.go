package record

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// Bit patterns the typed codec must carry through unchanged: the copy
// path never interprets a value, so NaN payloads (quiet and signalling),
// signed zeros, infinities and subnormals round-trip bit for bit.
var specialFloatBits = []uint64{
	0x7ff8000000000000, // quiet NaN
	0x7ff0000000000001, // signalling NaN, lowest payload
	0x7ff4000000000000, // signalling NaN, high payload bit
	0xfff8000000000001, // negative quiet NaN with payload
	0xfff0000000000001, // negative signalling NaN
	0x8000000000000000, // -0
	0x0000000000000000, // +0
	0x7ff0000000000000, // +Inf
	0xfff0000000000000, // -Inf
	0x0000000000000001, // smallest subnormal
	0x800fffffffffffff, // largest negative subnormal
	0x0010000000000000, // smallest normal
	0x3ff0000000000000, // 1
	0xc00921fb54442d18, // -pi
}

func specialFloats() []float64 {
	v := make([]float64, len(specialFloatBits))
	for i, b := range specialFloatBits {
		v[i] = math.Float64frombits(b)
	}
	return v
}

// sameFloats compares bit patterns, so NaNs compare equal to themselves.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameComplexes(a, b []complex128) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(real(a[i])) != math.Float64bits(real(b[i])) ||
			math.Float64bits(imag(a[i])) != math.Float64bits(imag(b[i])) {
			return false
		}
	}
	return true
}

// checkFloat64Codec encodes and decodes v through the record's codec and
// the portable byte loops and requires identical bytes and values, with
// the decoded values appended after prefix.
func checkFloat64Codec(t *testing.T, v, prefix []float64) {
	t.Helper()
	var r Record
	r.SetFloat64s(v)
	want := make([]byte, 8*len(v))
	putFloat64s(want, v)
	if !bytes.Equal(r.Payload, want) {
		t.Fatalf("SetFloat64s bytes differ from the portable encoder:\n got %x\nwant %x", r.Payload, want)
	}
	got, err := r.AppendFloat64s(append([]float64(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	ref := appendFloat64s(append([]float64(nil), prefix...), want)
	if !sameFloats(got, ref) || !sameFloats(got[len(prefix):], v) || !sameFloats(got[:len(prefix)], prefix) {
		t.Fatalf("AppendFloat64s = %v, portable decoder = %v, input %v after %v", got, ref, v, prefix)
	}
}

func checkComplex128Codec(t *testing.T, v, prefix []complex128) {
	t.Helper()
	var r Record
	r.SetComplex128s(v)
	want := make([]byte, 16*len(v))
	putComplex128s(want, v)
	if !bytes.Equal(r.Payload, want) {
		t.Fatalf("SetComplex128s bytes differ from the portable encoder:\n got %x\nwant %x", r.Payload, want)
	}
	got, err := r.AppendComplex128s(append([]complex128(nil), prefix...))
	if err != nil {
		t.Fatal(err)
	}
	ref := appendComplex128s(append([]complex128(nil), prefix...), want)
	if !sameComplexes(got, ref) || !sameComplexes(got[len(prefix):], v) || !sameComplexes(got[:len(prefix)], prefix) {
		t.Fatalf("AppendComplex128s = %v, portable decoder = %v, input %v after %v", got, ref, v, prefix)
	}
}

func TestTypedPayloadCodecMatchesPortable(t *testing.T) {
	sp := specialFloats()
	var cp []complex128
	for i := range sp {
		cp = append(cp, complex(sp[i], sp[len(sp)-1-i]))
	}
	cases := []struct {
		name   string
		f      []float64
		prefix []float64
	}{
		{"empty", nil, nil},
		{"empty non-nil", []float64{}, nil},
		{"specials", sp, nil},
		{"specials onto non-empty dst", sp, []float64{7, math.NaN(), -0.5}},
		{"one value onto non-empty dst", []float64{math.Inf(-1)}, []float64{1}},
		{"ramp", []float64{0, 0.25, -1e300, 5e-324, 1e-310}, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkFloat64Codec(t, c.f, c.prefix)
			var cv, cprefix []complex128
			for i := 0; i+1 < len(c.f); i += 2 {
				cv = append(cv, complex(c.f[i], c.f[i+1]))
			}
			for _, x := range c.prefix {
				cprefix = append(cprefix, complex(x, -x))
			}
			checkComplex128Codec(t, cv, cprefix)
		})
	}
	t.Run("complex specials", func(t *testing.T) { checkComplex128Codec(t, cp, []complex128{1i}) })
}

// TestTypedPayloadDecodeMisaligned decodes payloads that start at every
// byte offset of a buffer, so the copy source is misaligned for all but
// one of them, and requires the portable decoder's values.
func TestTypedPayloadDecodeMisaligned(t *testing.T) {
	sp := specialFloats()
	enc := make([]byte, 8*len(sp))
	putFloat64s(enc, sp)
	for off := 0; off < 16; off++ {
		buf := make([]byte, off+len(enc))
		copy(buf[off:], enc)
		r := Record{PayloadType: PayloadFloat64, Payload: buf[off:]}
		got, err := r.Float64s()
		if err != nil {
			t.Fatal(err)
		}
		if !sameFloats(got, sp) {
			t.Fatalf("offset %d: Float64s = %v, want %v", off, got, sp)
		}
		r = Record{PayloadType: PayloadComplex128, Payload: buf[off:]}
		c, err := r.Complex128s()
		if err != nil {
			t.Fatal(err)
		}
		if want := appendComplex128s(nil, enc); !sameComplexes(c, want) {
			t.Fatalf("offset %d: Complex128s = %v, want %v", off, c, want)
		}
	}
}

// TestTypedPayloadShortAndMismatch keeps the codec's checks ahead of the
// copy: a ragged length is ErrShortPayload, a wrong type ErrPayloadType,
// and neither touches dst.
func TestTypedPayloadShortAndMismatch(t *testing.T) {
	dst := []float64{42}
	for _, n := range []int{1, 7, 9, 15, 17, 23} {
		r := Record{PayloadType: PayloadFloat64, Payload: make([]byte, n)}
		if got, err := r.AppendFloat64s(dst); !errors.Is(err, ErrShortPayload) || got != nil {
			t.Errorf("float64 payload of %d bytes: (%v, %v), want ErrShortPayload", n, got, err)
		}
	}
	cdst := []complex128{42}
	for _, n := range []int{1, 8, 15, 17, 24, 31} {
		r := Record{PayloadType: PayloadComplex128, Payload: make([]byte, n)}
		if got, err := r.AppendComplex128s(cdst); !errors.Is(err, ErrShortPayload) || got != nil {
			t.Errorf("complex128 payload of %d bytes: (%v, %v), want ErrShortPayload", n, got, err)
		}
	}
	r := Record{PayloadType: PayloadComplex128, Payload: make([]byte, 16)}
	if _, err := r.AppendFloat64s(dst); !errors.Is(err, ErrPayloadType) {
		t.Errorf("float64 decode of a complex payload: %v, want ErrPayloadType", err)
	}
	r.PayloadType = PayloadFloat64
	if _, err := r.AppendComplex128s(cdst); !errors.Is(err, ErrPayloadType) {
		t.Errorf("complex128 decode of a float64 payload: %v, want ErrPayloadType", err)
	}
	if dst[0] != 42 || cdst[0] != 42 {
		t.Error("a failed decode wrote into dst")
	}
}

// FuzzTypedPayloadCodec decodes arbitrary bytes, sub-sliced at off so the
// source may be misaligned, as float64 and complex128 payloads appended
// after a prefix of n values. The record's codec must agree with the
// portable byte loops on the error, on every decoded bit and, encoding the
// values back, on every payload byte.
func FuzzTypedPayloadCodec(f *testing.F) {
	sp := specialFloats()
	enc := make([]byte, 8*len(sp))
	putFloat64s(enc, sp)
	f.Add(enc, uint8(0), uint8(0))
	f.Add(append([]byte{0xff}, enc...), uint8(1), uint8(3))
	f.Add([]byte{}, uint8(0), uint8(2))
	f.Add(enc[:13], uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, off, n uint8) {
		p := data[min(int(off), len(data)):]
		prefix := make([]float64, int(n)%8)
		for i := range prefix {
			prefix[i] = float64(i) - 0.5
		}

		r := Record{PayloadType: PayloadFloat64, Payload: p}
		got, err := r.AppendFloat64s(append([]float64(nil), prefix...))
		if len(p)%8 != 0 {
			if !errors.Is(err, ErrShortPayload) || got != nil {
				t.Fatalf("float64 decode of %d bytes: (%v, %v), want ErrShortPayload", len(p), got, err)
			}
		} else {
			if err != nil {
				t.Fatal(err)
			}
			if ref := appendFloat64s(append([]float64(nil), prefix...), p); !sameFloats(got, ref) {
				t.Fatalf("AppendFloat64s = %v, portable decoder = %v", got, ref)
			}
			var back Record
			back.SetFloat64s(got[len(prefix):])
			if !bytes.Equal(back.Payload, p) {
				t.Fatalf("float64 re-encode = %x, want %x", back.Payload, p)
			}
		}

		cprefix := make([]complex128, len(prefix))
		for i, x := range prefix {
			cprefix[i] = complex(x, -x)
		}
		r = Record{PayloadType: PayloadComplex128, Payload: p}
		cgot, err := r.AppendComplex128s(append([]complex128(nil), cprefix...))
		if len(p)%16 != 0 {
			if !errors.Is(err, ErrShortPayload) || cgot != nil {
				t.Fatalf("complex128 decode of %d bytes: (%v, %v), want ErrShortPayload", len(p), cgot, err)
			}
			return
		}
		if err != nil {
			t.Fatal(err)
		}
		if ref := appendComplex128s(append([]complex128(nil), cprefix...), p); !sameComplexes(cgot, ref) {
			t.Fatalf("AppendComplex128s = %v, portable decoder = %v", cgot, ref)
		}
		var back Record
		back.SetComplex128s(cgot[len(cprefix):])
		if !bytes.Equal(back.Payload, p) {
			t.Fatalf("complex128 re-encode = %x, want %x", back.Payload, p)
		}
	})
}

// BenchmarkPayloadCodec is the payload encode/decode layer: one pass of
// 1024 float64 or 1024 complex128 values (8 or 16 KiB) through a record,
// into reused payload capacity and reused scratch. The portable- variants
// run the per-element byte loops, the big-endian fallback, for reference.
func BenchmarkPayloadCodec(b *testing.B) {
	const n = 1024
	f := make([]float64, n)
	c := make([]complex128, n)
	for i := range f {
		f[i] = float64(i) * 0.37
		c[i] = complex(f[i], -f[i])
	}
	var fr, cr Record
	fr.SetFloat64s(f)
	cr.SetComplex128s(c)
	fbuf := make([]float64, 0, n)
	cbuf := make([]complex128, 0, n)
	run := func(name string, bytesPerOp int, op func()) {
		b.Run(name, func(b *testing.B) {
			b.SetBytes(int64(bytesPerOp))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
	run("encode-float64", 8*n, func() { fr.SetFloat64s(f) })
	run("decode-float64", 8*n, func() { fbuf, _ = fr.AppendFloat64s(fbuf[:0]) })
	run("encode-complex128", 16*n, func() { cr.SetComplex128s(c) })
	run("decode-complex128", 16*n, func() { cbuf, _ = cr.AppendComplex128s(cbuf[:0]) })
	run("portable-encode-float64", 8*n, func() { putFloat64s(fr.Payload, f) })
	run("portable-decode-float64", 8*n, func() { fbuf = appendFloat64s(fbuf[:0], fr.Payload) })
	run("portable-encode-complex128", 16*n, func() { putComplex128s(cr.Payload, c) })
	run("portable-decode-complex128", 16*n, func() { cbuf = appendComplex128s(cbuf[:0], cr.Payload) })
}
