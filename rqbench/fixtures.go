package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"rqm"
)

// fixture is one generated input: the .rqmf body the program receives and
// the oracle's own view of it. Fixtures are synthesized before any clock
// starts and depend only on (generator, seed, scale, cut).
type fixture struct {
	name string // dataset name on the cluster
	gen  string // rqm.GenerateField path, or the dataset it was cut from
	body []byte // the .rqmf upload
	orig *rqmf  // the oracle's parse of body
	rng  float64
	sha  [32]byte // SHA-256 of body: what an exact full read must hash to
}

func newFixture(name, gen string, f *rqm.Field) (*fixture, error) {
	var buf bytes.Buffer
	if _, err := f.WriteTo(&buf); err != nil {
		return nil, err
	}
	fx := &fixture{name: name, gen: gen, body: buf.Bytes(), sha: sha256.Sum256(buf.Bytes())}
	var err error
	if fx.orig, err = parseRQMF(fx.body); err != nil {
		return nil, fmt.Errorf("fixture %s: %w", name, err)
	}
	fx.rng = valueRange(fx.orig.vals)
	return fx, nil
}

// makeFixture synthesizes the field at path (e.g. "nyx/temperature").
func makeFixture(name, path string, seed uint64, sc rqm.Scale) (*fixture, error) {
	f, err := rqm.GenerateField(path, seed, sc)
	if err != nil {
		return nil, err
	}
	return newFixture(name, path, f)
}

// slabFixtures synthesizes every field of a Small-scale dataset and cuts
// each into slabs of whole outermost-axis planes holding at least
// slabValues values, so a working set can hold many moderate datasets with
// the statistics of full-size fields.
func slabFixtures(prefix, set string, seed uint64, slabValues int) ([]*fixture, error) {
	ds, err := rqm.GenerateDataset(set, seed, rqm.ScaleSmall)
	if err != nil {
		return nil, err
	}
	var out []*fixture
	for i, f := range ds.Fields {
		plane := len(f.Data) / f.Dims[0]
		rows := (slabValues + plane - 1) / plane
		for k := 0; (k+1)*rows <= f.Dims[0]; k++ {
			fx, err := slab(fmt.Sprintf("%s-%d-%d", prefix, i, k), f, k*rows, rows)
			if err != nil {
				return nil, err
			}
			out = append(out, fx)
		}
	}
	return out, nil
}

// slab is rows outermost planes of f starting at row first.
func slab(name string, f *rqm.Field, first, rows int) (*fixture, error) {
	plane := len(f.Data) / f.Dims[0]
	dims := append([]int{rows}, f.Dims[1:]...)
	g, err := rqm.FieldFromData(name, f.Prec, f.Data[first*plane:(first+rows)*plane], dims...)
	if err != nil {
		return nil, err
	}
	return newFixture(name, f.Name, g)
}

// cropFixture is a slab of whole outermost planes of fx holding at most
// maxValues values (at least one plane), starting at fraction pos in [0, 1)
// of the possible start rows.
func cropFixture(name string, fx *fixture, pos float64, maxValues int) (*fixture, error) {
	f, err := rqm.FieldFromData(fx.gen, rqm.Precision(fx.orig.precBits), fx.orig.vals, fx.orig.dims...)
	if err != nil {
		return nil, err
	}
	plane := len(f.Data) / f.Dims[0]
	rows := min(max(maxValues/plane, 1), f.Dims[0])
	return slab(name, f, int(pos*float64(f.Dims[0]-rows+1)), rows)
}

// originalBytes is the size of the original samples at storage precision.
func (fx *fixture) originalBytes() int64 { return int64(len(fx.orig.payload)) }
