package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
)

// The oracle judges the program's answers from first principles. It parses
// the .rqmf wire format itself, derives the pointwise bound from the
// original values' own range, computes PSNR itself and hashes raw bytes
// with SHA-256. It calls none of the program's quality or verification
// code, so a defect there cannot hide a defect in what it checks.

const rqmfMagic = 0x52514d46

// rqmf is a parsed .rqmf body: 8-byte magic, 8-byte (precision<<8 | rank),
// one 8-byte extent per dimension, then little-endian samples at the
// storage precision.
type rqmf struct {
	precBits int
	dims     []int
	vals     []float64
	payload  []byte
}

func parseRQMF(b []byte) (*rqmf, error) {
	if len(b) < 16 {
		return nil, fmt.Errorf("oracle: %d-byte body is shorter than a header", len(b))
	}
	if m := binary.LittleEndian.Uint64(b); m != rqmfMagic {
		return nil, fmt.Errorf("oracle: bad magic %#x", m)
	}
	meta := binary.LittleEndian.Uint64(b[8:])
	f := &rqmf{precBits: int(meta >> 8)}
	rank := int(meta & 0xff)
	if rank < 1 || rank > 4 || (f.precBits != 32 && f.precBits != 64) {
		return nil, fmt.Errorf("oracle: bad header (rank %d, precision %d)", rank, f.precBits)
	}
	off := 16 + 8*rank
	if len(b) < off {
		return nil, fmt.Errorf("oracle: truncated dims")
	}
	n := 1
	for i := 0; i < rank; i++ {
		d := int(binary.LittleEndian.Uint64(b[16+8*i:]))
		f.dims = append(f.dims, d)
		n *= d
	}
	w := f.precBits / 8
	if len(b)-off != n*w {
		return nil, fmt.Errorf("oracle: payload is %d bytes, want %d", len(b)-off, n*w)
	}
	f.payload = b[off:]
	f.vals = make([]float64, n)
	for i := range f.vals {
		if w == 4 {
			f.vals[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(f.payload[4*i:])))
		} else {
			f.vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(f.payload[8*i:]))
		}
	}
	return f, nil
}

// sliceBody is the exact .rqmf a slice [off, off+n) of orig must equal: a
// 1-D header followed by the original's sample bytes for that range.
func sliceBody(orig *rqmf, off, n int) []byte {
	w := orig.precBits / 8
	var b bytes.Buffer
	for _, v := range []uint64{rqmfMagic, uint64(orig.precBits)<<8 | 1, uint64(n)} {
		_ = binary.Write(&b, binary.LittleEndian, v)
	}
	b.Write(orig.payload[off*w : (off+n)*w])
	return b.Bytes()
}

// valueRange is max − min of the original values.
func valueRange(vals []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	return hi - lo
}

// absBound turns a request's (mode, eb) into the pointwise bound the
// reconstruction owes: REL scales by the original's value range.
func absBound(mode string, eb, rng float64) float64 {
	if mode == "rel" {
		return eb * rng
	}
	return eb
}

// checkBound fails when any |orig − recon| exceeds bound. The only slack
// is half a step of the storage precision at the reconstructed value: the
// rounding of writing x̂ itself (samples stored at 32 bits are decoded to
// float32 on the way out). One representable step past the bound fails.
func checkBound(orig, recon []float64, bound float64, precBits int) error {
	if len(orig) != len(recon) {
		return fmt.Errorf("oracle: %d values returned, want %d", len(recon), len(orig))
	}
	for i, o := range orig {
		if d := math.Abs(o - recon[i]); !(d <= bound+halfStep(recon[i], precBits)) {
			return fmt.Errorf("oracle: |x−x̂| = %g at %d exceeds bound %g", d, i, bound)
		}
	}
	return nil
}

// halfStep is half the spacing of representable values at v.
func halfStep(v float64, precBits int) float64 {
	v = math.Abs(v)
	if precBits == 32 {
		f := float32(v)
		return float64(math.Nextafter32(f, float32(math.Inf(1)))-f) / 2
	}
	return (math.Nextafter(v, math.Inf(1)) - v) / 2
}

// psnr is 20·log10(range) − 10·log10(MSE) over the original's value range.
func psnr(orig, recon []float64, rng float64) float64 {
	var sum float64
	for i, o := range orig {
		d := o - recon[i]
		sum += d * d
	}
	mse := sum / float64(len(orig))
	if mse == 0 {
		return math.Inf(1)
	}
	return 20*math.Log10(rng) - 10*math.Log10(mse)
}

// checkExact fails unless body hashes to want.
func checkExact(want [32]byte, body []byte) error {
	if sha256.Sum256(body) != want {
		return fmt.Errorf("oracle: exact read does not match the original's SHA-256")
	}
	return nil
}
