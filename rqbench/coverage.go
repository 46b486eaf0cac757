package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"

	"rqm/client"
)

// coverage is a fixed pass, run once after the timed phase, that samples
// the operation kinds a workload's own mix does not run, so every run
// reports every end-to-end metric from a steady sample. Its datasets are
// cut from the workload's own fixtures. Its operations count toward
// attempted and failed but not toward ops_s.
type coverage struct {
	reads   []*fixture // exact, small chunks: the slice and get targets
	readOps []readOp   // GETs and slices, interleaved
	writes  []*fixture // put, profile, estimate, recompact episodes
	// sweep is a fixed set of puts whose only purpose is the model figures.
	// Each checked put yields one ratio-accuracy and one PSNR-gap sample,
	// and the PSNR gap is mostly the model's own sampling noise (~0.01 dB),
	// so its median needs ~100 independent samples to settle across seeds.
	// Sweep datasets have the workloads' size and bound range (128 Ki
	// values, REL 7e-4 to 2e-3): the model's ratio estimate leaves out fixed
	// container costs, so smaller datasets or tighter bounds would measure
	// that instead. They are cut when the sweep runs, so they do not sit in
	// the heap during the timed phase.
	sweep []sweepCut
}

// sweepCut names one sweep dataset: a slab of src starting at fraction pos.
type sweepCut struct {
	src *fixture
	pos float64
}

const (
	coverValues      = 1 << 17
	coverChunk       = 1 << 15
	coverReads       = 2
	coverWrites      = 16
	coverSlices      = 1000 // lossy; ten samples above the printed p99
	coverExactSlices = 250
	coverGets        = 100
	coverEstimates   = 16 // per profile
	sweepPuts        = 108
)

// coverRatioGains are the episode's recompaction targets as multiples of
// the put's ratio.
var coverRatioGains = []float64{1.5, 2.25, 3.4}

// sweepBounds are the REL bounds the sweep datasets are put at in turn,
// around the workloads' own 1e-3 (which the set-up checks already cover).
var sweepBounds = []float64{2e-3, 1.4e-3, 7e-4}

func newCoverage(fxs []*fixture, rng *rand.Rand) (*coverage, error) {
	c := &coverage{}
	for i := 0; i < coverReads; i++ {
		fx, err := cropFixture(fmt.Sprintf("cov-r%d", i), fxs[i%len(fxs)], 0, coverValues)
		if err != nil {
			return nil, err
		}
		c.reads = append(c.reads, fx)
	}
	for i := 0; i < coverWrites; i++ {
		src := (i + coverReads) % len(fxs)
		fx, err := cropFixture(fmt.Sprintf("cov-w%d", i), fxs[src], rng.Float64(), coverValues)
		if err != nil {
			return nil, err
		}
		c.writes = append(c.writes, fx)
	}
	for i := 0; i < sweepPuts; i++ {
		// Seeded start rows keep sweep datasets distinct even when a workload
		// has few fixtures: a repeated dataset would repeat its model sample.
		c.sweep = append(c.sweep, sweepCut{src: fxs[i%len(fxs)], pos: rng.Float64()})
	}
	for i := 0; i < coverSlices+coverExactSlices; i++ {
		fx := c.reads[i%coverReads]
		slots := len(fx.orig.vals) / sliceValues
		c.readOps = append(c.readOps, readOp{name: fx.name, off: rng.IntN(slots) * sliceValues, exact: i >= coverSlices})
	}
	for i := 0; i < coverGets; i++ {
		c.readOps = append(c.readOps, readOp{name: c.reads[i%coverReads].name, full: true})
	}
	// GETs and slices interleaved, so that a transient stall of the host
	// cannot land on one kind's whole sample.
	rng.Shuffle(len(c.readOps), func(i, j int) { c.readOps[i], c.readOps[j] = c.readOps[j], c.readOps[i] })
	return c, nil
}

func (c *coverage) populate(e *env) error {
	for _, fx := range c.reads {
		if err := e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault, exact: true, chunk: coverChunk}, false); err != nil {
			return err
		}
	}
	return nil
}

// run executes the pass once: the reads, then the episodes spread evenly
// through the sweep, each block from a collected heap. Operation failures
// are counted, not returned; the error is the benchmark's own.
func (c *coverage) run(e *env) error {
	e.flushProfiles()
	for _, op := range c.readOps {
		if op.full {
			_ = e.get(op.name)
		} else {
			_ = e.slice(op.name, op.off, sliceValues, op.exact)
		}
	}
	runtime.GC()
	every := len(c.sweep) / len(c.writes)
	for i, cut := range c.sweep {
		if k := i / every; i%every == 0 && k < len(c.writes) {
			_ = c.episode(e, c.writes[k], k%numShards)
		}
		fx, err := cropFixture(fmt.Sprintf("sweep-%d", i), cut.src, cut.pos, coverValues)
		if err != nil {
			return err
		}
		_ = c.sweepPut(e, fx, sweepBounds[i%len(sweepBounds)], i%numShards, uint64(i+1))
	}
	return nil
}

// episode is put, two cold profiles, a burst of estimates on each at
// bounds across two decades (the model answering many what-ifs from one
// sampling pass), and three recompactions to a target ratio.
func (c *coverage) episode(e *env, fx *fixture, shard int) error {
	if err := e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault}, true); err != nil {
		return err
	}
	for _, pred := range []string{"lorenzo", "interpolation"} {
		pr, err := e.profile(shard, fx, client.ProfileParams{Predictor: pred})
		if err != nil {
			return err
		}
		for i := 0; i < coverEstimates; i++ {
			eb := 1e-4 * math.Pow(100, float64(i)/(coverEstimates-1))
			if _, err := e.estimate(shard, pr.Profile, eb, "rel"); err != nil {
				return err
			}
		}
	}
	// Successively looser ratio targets, so that each one is a rewrite.
	put := e.dataset(fx.name).ratio
	for _, gain := range coverRatioGains {
		if err := e.recompact(fx.name, client.SolveTarget{Kind: "ratio", Value: math.Round(put*gain*100) / 100}, false); err != nil {
			return err
		}
	}
	return nil
}

// sweepPut is put, profile and estimate at the put's bound (use-case 1 on a
// fresh dataset), the model check against that estimate, and a delete. Each
// sweep put samples with its own model seed, so overlapping slabs still
// give independent draws of the model's sampling error.
func (c *coverage) sweepPut(e *env, fx *fixture, eb float64, shard int, seed uint64) error {
	if err := e.put(fx.name, fx, putParams{mode: "rel", eb: eb, seed: seed}, false); err != nil {
		return err
	}
	pr, err := e.profile(shard, fx, client.ProfileParams{Seed: seed})
	if err != nil {
		return err
	}
	est, err := e.estimate(shard, pr.Profile, eb, "rel")
	if err != nil {
		return err
	}
	if err := e.checkModel(fx.name, est); err != nil {
		return err
	}
	return e.del(fx.name)
}
