package main

import (
	"math"
	"testing"

	"rqm"
)

func testFixture(t *testing.T, prec rqm.Precision) *fixture {
	t.Helper()
	data := make([]float64, 64)
	for i := range data {
		data[i] = 1 + float64(i)/64
	}
	f, err := rqm.FieldFromData("t", prec, data, 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	fx, err := newFixture("t", "t", f)
	if err != nil {
		t.Fatal(err)
	}
	return fx
}

// A reconstruction at the bound passes; one representable step past it
// fails, at either storage precision.
func TestCheckBoundRejectsOneStepPast(t *testing.T) {
	const bound = 1.0 / 1024 // 1 + bound is exact in float32 and float64
	for _, tc := range []struct {
		prec rqm.Precision
		next func(float64) float64
	}{
		{rqm.Float64, func(v float64) float64 { return math.Nextafter(v, 2) }},
		{rqm.Float32, func(v float64) float64 { return float64(math.Nextafter32(float32(v), 2)) }},
	} {
		fx := testFixture(t, tc.prec)
		recon := append([]float64(nil), fx.orig.vals...)
		recon[0] = fx.orig.vals[0] + bound
		if err := checkBound(fx.orig.vals, recon, bound, fx.orig.precBits); err != nil {
			t.Errorf("%d-bit: reconstruction at the bound rejected: %v", fx.orig.precBits, err)
		}
		recon[0] = tc.next(recon[0])
		if err := checkBound(fx.orig.vals, recon, bound, fx.orig.precBits); err == nil {
			t.Errorf("%d-bit: reconstruction one step past the bound accepted", fx.orig.precBits)
		}
	}
}

// An exact read with one flipped bit fails, in a full read and in a slice.
func TestCheckExactRejectsFlippedBit(t *testing.T) {
	fx := testFixture(t, rqm.Float32)
	body := append([]byte(nil), fx.body...)
	if err := checkExact(fx.sha, body); err != nil {
		t.Fatalf("unchanged body rejected: %v", err)
	}
	body[len(body)-3] ^= 0x10
	if err := checkExact(fx.sha, body); err == nil {
		t.Error("full read with a flipped bit accepted")
	}
	want := sliceBody(fx.orig, 8, 16)
	got := append([]byte(nil), want...)
	got[len(got)-1] ^= 0x01
	if string(got) == string(want) {
		t.Error("slice with a flipped bit compares equal")
	}
	if s, err := parseRQMF(want); err != nil || len(s.vals) != 16 || s.vals[0] != fx.orig.vals[8] {
		t.Errorf("slice body does not parse to the original's range: %v", err)
	}
}

func TestPSNR(t *testing.T) {
	got := psnr([]float64{0, 1}, []float64{0.1, 1}, 1)
	if want := -10 * math.Log10(0.005); math.Abs(got-want) > 1e-12 {
		t.Errorf("psnr = %g, want %g", got, want)
	}
}

func TestParseRQMFRejectsTruncation(t *testing.T) {
	fx := testFixture(t, rqm.Float64)
	if _, err := parseRQMF(fx.body[:len(fx.body)-1]); err == nil {
		t.Error("truncated body parsed")
	}
}

// quartiles matches Python's statistics.quantiles(range(1, 11), n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q := quartiles(xs); q != [3]float64{2.75, 5.5, 8.25} {
		t.Errorf("quartiles = %v, want [2.75 5.5 8.25]", q)
	}
}
