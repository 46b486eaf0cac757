package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strconv"
	"sync"

	"rqm"
	"rqm/client"
)

// A workload's seed fixes its fixtures and its round: a fixed sequence of
// operations that the timed phase repeats whole until the run's time is
// up. Every round leaves the archive in the same state as the round before
// it (each dataset a round mutates is deleted and put fresh first), so
// counts, byte totals and model figures depend on the seed alone, and the
// share of failed operations cannot depend on the run's length. Workloads
// fix the make-up of a round (which generators, bounds and operation kinds,
// how many of each); the seed picks realizations, order and targets.
type workload interface {
	// prepare synthesizes the fixtures and the round for seed. Untimed.
	prepare(seed uint64) error
	// populate fills a fresh cluster with the datasets the round reads.
	populate(e *env) error
	// round runs the round once; first is set on the run's first round,
	// which also takes the model-accuracy measurements.
	round(e *env, first bool)
	// cover is the fixed coverage pass after the timed phase and the
	// metrics taken from it (those the workload's own mix does not sample).
	cover() (*coverage, []string)
	// probes is what the traced run replays layer by layer.
	probes() traceProbes
	name() string
	// description returns the fixture summary printed with the results.
	description() string
}

const (
	sliceValues = 4096
	relDefault  = 1e-3
)

func newWorkload(name string) (workload, error) {
	switch name {
	case "ingest":
		return &ingest{}, nil
	case "read-hot":
		return &readHot{}, nil
	case "mixed-cold":
		return &mixedCold{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want ingest, read-hot or mixed-cold)", name)
}

func rngFor(seed uint64, workload string) *rand.Rand {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(workload); i++ {
		h = (h ^ uint64(workload[i])) * 1099511628211
	}
	return rand.New(rand.NewPCG(seed, h))
}

// fixtureSeed derives the generator seed of a workload's i-th fixture.
func fixtureSeed(seed uint64, i int) uint64 { return seed*1000 + uint64(i) + 1 }

func describe(fxs []*fixture) string {
	var n, b int64
	for _, fx := range fxs {
		n += int64(len(fx.orig.vals))
		b += fx.originalBytes()
	}
	return fmt.Sprintf("%d datasets, %d values, %.1f MB original", len(fxs), n, float64(b)/1e6)
}

// ---------------------------------------------------------------------------
// ingest: the write path.

var ingestGens = []string{"nyx/temperature", "hurricane/U", "cesm/TS", "hacc/xx", "mixed/q"}

type ingestPut struct {
	name string
	fx   *fixture
	p    putParams
}

type ingest struct {
	fxs  []*fixture
	puts []ingestPut
	cov  *coverage
}

func (w *ingest) prepare(seed uint64) error {
	rng := rngFor(seed, "ingest")
	for i, g := range ingestGens {
		fx, err := makeFixture(fmt.Sprintf("in-%d", i), g, fixtureSeed(seed, i), rqm.ScaleSmall)
		if err != nil {
			return err
		}
		w.fxs = append(w.fxs, fx)
		// Four puts per field, one of them exact: REL at two bounds, and ABS
		// at a round bound near REL 1e-3 of the field's range. Three of the
		// four cost about the same, so put latencies cluster by field and
		// their median sits inside a cluster, not on the edge between two.
		abs, _ := strconv.ParseFloat(strconv.FormatFloat(relDefault*fx.rng, 'g', 2, 64), 64)
		w.puts = append(w.puts,
			ingestPut{fx.name + "-rel3", fx, putParams{mode: "rel", eb: 1e-3}},
			ingestPut{fx.name + "-rel2", fx, putParams{mode: "rel", eb: 1e-2}},
			ingestPut{fx.name + "-abs", fx, putParams{mode: "abs", eb: abs}},
			ingestPut{fx.name + "-exact", fx, putParams{mode: "rel", eb: 1e-3, exact: true}},
		)
	}
	rng.Shuffle(len(w.puts), func(i, j int) { w.puts[i], w.puts[j] = w.puts[j], w.puts[i] })
	var err error
	w.cov, err = newCoverage(w.fxs, rng)
	return err
}

func (w *ingest) populate(e *env) error { return w.cov.populate(e) }

func (w *ingest) round(e *env, first bool) {
	for _, p := range w.puts {
		_ = e.put(p.name, p.fx, p.p, first)
	}
}

func (w *ingest) cover() (*coverage, []string) {
	return w.cov, []string{"slice_p50_ms", "exact_slice_p50_ms", "get_mb_s",
		"estimate_p50_us", "profile_p50_ms", "recompact_p50_ms"}
}

func (w *ingest) name() string { return "ingest" }

func (w *ingest) probes() traceProbes { return traceProbes{slices: w.cov.reads, puts: w.fxs} }

func (w *ingest) description() string {
	return "ingest: " + describe(w.fxs) + fmt.Sprintf(", %d puts per round", len(w.puts))
}

// ---------------------------------------------------------------------------
// read-hot: the read path over a small hot set.

var readHotGens = []string{"cesm/TS", "hurricane/U", "hacc/xx"}

const (
	hotClients       = 2
	hotOpsPerClient  = 100
	chunkValues      = 1 << 18 // the store's default chunk size
	slotsPerChunk    = chunkValues / sliceValues
	zipfS            = 1.1
	hotExactEveryNth = 4
)

// readOp is one read: a 4096-value slice at off, or a full GET.
type readOp struct {
	name        string
	off         int
	exact, full bool
}

type readHot struct {
	fxs []*fixture
	seq [hotClients][]readOp
	cov *coverage
}

func (w *readHot) prepare(seed uint64) error {
	rng := rngFor(seed, "read-hot")
	for i, g := range readHotGens {
		fx, err := makeFixture(fmt.Sprintf("hot-%d", i), g, fixtureSeed(seed, i), rqm.ScaleSmall)
		if err != nil {
			return err
		}
		w.fxs = append(w.fxs, fx)
	}
	// Zipf-skewed slot choice per dataset; slots are 4096-aligned inside
	// full chunks, so every slice decodes exactly one whole chunk.
	zipfs := make([]*rand.Zipf, len(w.fxs))
	perms := make([][]int, len(w.fxs))
	for i, fx := range w.fxs {
		slots := len(fx.orig.vals) / chunkValues * slotsPerChunk
		perms[i] = rng.Perm(slots)
		zipfs[i] = rand.NewZipf(rng, zipfS, 1, uint64(slots-1))
	}
	for c := 0; c < hotClients; c++ {
		for i := 0; i < hotOpsPerClient; i++ {
			d := (i + c) % len(w.fxs)
			slot := perms[d][zipfs[d].Uint64()]
			w.seq[c] = append(w.seq[c], readOp{
				name: w.fxs[d].name, off: slot * sliceValues, exact: i%hotExactEveryNth == hotExactEveryNth-1,
			})
		}
	}
	var err error
	w.cov, err = newCoverage(w.fxs, rng)
	return err
}

func (w *readHot) populate(e *env) error {
	for _, fx := range w.fxs {
		if err := e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault, exact: true}, false); err != nil {
			return err
		}
	}
	return w.cov.populate(e)
}

func (w *readHot) round(e *env, _ bool) {
	var wg sync.WaitGroup
	for c := range w.seq {
		wg.Add(1)
		go func(ops []readOp) {
			defer wg.Done()
			for _, op := range ops {
				_ = e.slice(op.name, op.off, sliceValues, op.exact)
			}
		}(w.seq[c])
	}
	wg.Wait()
}

func (w *readHot) cover() (*coverage, []string) {
	return w.cov, []string{"put_mb_s", "put_p50_ms", "get_mb_s", "estimate_p50_us",
		"profile_p50_ms", "recompact_p50_ms"}
}

func (w *readHot) name() string { return "read-hot" }

func (w *readHot) probes() traceProbes { return traceProbes{slices: w.fxs, puts: w.cov.writes} }

func (w *readHot) description() string {
	return "read-hot: " + describe(w.fxs) + fmt.Sprintf(", %d clients x %d slices per round", hotClients, hotOpsPerClient)
}

// ---------------------------------------------------------------------------
// mixed-cold: the paper's three use-cases over a uniform working set.

// mixedCold fields are cut into plane-aligned slabs of about this many
// values, one chunk each, so the working set holds ~50 datasets.
const (
	coldSlabValues   = 1 << 17
	coldRatioRewrite = 4 // datasets recompacted to a target ratio per round
	coldPSNRRewrite  = 4 // ... to a target PSNR (half with adaptive-space)
	coldPromote      = 2 // datasets promoted then demoted per round
	coldGets         = 12
	coldSlices       = 24
	coldRepeats      = 2 // profiles repeated within a round (cache hits)
	coldPSNRDrop     = 12.0
	coldRatioGain    = 1.5
)

// coldSets are generated whole; every field of each is cut into slabs.
var coldSets = []string{"cesm", "hurricane", "hacc", "mixed"}

type coldOp func(e *env, first bool) error

type mixedCold struct {
	fxs      []*fixture
	episodes []coldOp
	cov      *coverage
}

func (w *mixedCold) prepare(seed uint64) error {
	rng := rngFor(seed, "mixed-cold")
	// The round's make-up is stratified by source dataset: each operation
	// kind touches every set equally often, and the seed picks slabs.
	groups := make([][]*fixture, len(coldSets))
	for i, set := range coldSets {
		fxs, err := slabFixtures(fmt.Sprintf("mc-%d", i), set, fixtureSeed(seed, i), coldSlabValues)
		if err != nil {
			return err
		}
		rng.Shuffle(len(fxs), func(a, b int) { fxs[a], fxs[b] = fxs[b], fxs[a] })
		groups[i] = fxs
		w.fxs = append(w.fxs, fxs...)
	}
	unused := append([][]*fixture(nil), groups...)
	pick := func(g int) *fixture { f := unused[g][0]; unused[g] = unused[g][1:]; return f }
	anyOf := func(g int) *fixture { return groups[g][rng.IntN(len(groups[g]))] }
	shardOf := func(i int) int { return i % numShards }

	var episodes [][]coldOp
	var profiled []*fixture
	for i := 0; i < coldRatioRewrite+coldPSNRRewrite; i++ {
		fx, shard := pick(i%len(groups)), shardOf(i)
		byRatio, adaptive := i < coldRatioRewrite, i >= coldRatioRewrite+coldPSNRRewrite/2
		profiled = append(profiled, fx)
		var lorenzo, interp string
		episodes = append(episodes, []coldOp{
			func(e *env, _ bool) error { return e.del(fx.name) },
			func(e *env, first bool) error {
				return e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault}, first)
			},
			func(e *env, _ bool) error {
				pr, err := e.profile(shard, fx, client.ProfileParams{Predictor: "lorenzo"})
				if err == nil {
					lorenzo = pr.Profile
				}
				return err
			},
			func(e *env, _ bool) error {
				pr, err := e.profile(shard, fx, client.ProfileParams{Predictor: "interpolation"})
				if err == nil {
					interp = pr.Profile
				}
				return err
			},
			func(e *env, _ bool) error { _, err := e.estimate(shard, lorenzo, relDefault, "rel"); return err },
			func(e *env, _ bool) error { _, err := e.estimate(shard, lorenzo, 1e-2, "rel"); return err },
			func(e *env, _ bool) error { _, err := e.estimate(shard, interp, relDefault, "rel"); return err },
			func(e *env, _ bool) error { _, err := e.estimate(shard, interp, 1e-2, "rel"); return err },
			func(e *env, _ bool) error {
				_, err := e.solve(shard, lorenzo, coldTarget(e.dataset(fx.name), byRatio))
				return err
			},
			func(e *env, _ bool) error {
				return e.recompact(fx.name, coldTarget(e.dataset(fx.name), byRatio), adaptive)
			},
		})
	}
	for i := 0; i < coldPromote; i++ {
		fx := pick(i % len(groups))
		episodes = append(episodes, []coldOp{
			func(e *env, _ bool) error { return e.del(fx.name) },
			func(e *env, first bool) error {
				return e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault}, first)
			},
			func(e *env, _ bool) error { return e.promote(fx.name) },
			func(e *env, _ bool) error { _, err := e.read(fx.name, true); return err },
			func(e *env, _ bool) error { return e.demote(fx.name) },
		})
	}
	for i := 0; i < coldGets; i++ {
		fx := anyOf(i % len(groups))
		episodes = append(episodes, []coldOp{func(e *env, _ bool) error { return e.get(fx.name) }})
	}
	for i := 0; i < coldSlices; i++ {
		fx := anyOf(i % len(groups))
		off := rng.IntN(len(fx.orig.vals) - sliceValues + 1)
		episodes = append(episodes, []coldOp{func(e *env, _ bool) error {
			return e.slice(fx.name, off, sliceValues, false)
		}})
	}
	rng.Shuffle(len(episodes), func(i, j int) { episodes[i], episodes[j] = episodes[j], episodes[i] })
	// Profiles repeated after every episode has run hit the cache.
	for i := 0; i < coldRepeats; i++ {
		fx, shard := profiled[i], shardOf(i)
		episodes = append(episodes, []coldOp{func(e *env, _ bool) error {
			_, err := e.profile(shard, fx, client.ProfileParams{Predictor: "lorenzo"})
			return err
		}})
	}
	for _, ep := range episodes {
		ep := ep
		w.episodes = append(w.episodes, func(e *env, first bool) error {
			for _, op := range ep {
				if err := op(e, first); err != nil {
					return err
				}
			}
			return nil
		})
	}
	var err error
	w.cov, err = newCoverage(w.fxs, rng)
	return err
}

// coldTarget is a recompaction target the stored copy does not meet yet:
// 1.5x its put ratio, or 12 dB below its estimated PSNR at put.
func coldTarget(d *dataset, byRatio bool) client.SolveTarget {
	if byRatio {
		return client.SolveTarget{Kind: "ratio", Value: math.Round(d.ratio*coldRatioGain*100) / 100}
	}
	return client.SolveTarget{Kind: "psnr", Value: math.Round(d.estPSNR - coldPSNRDrop)}
}

func (w *mixedCold) populate(e *env) error {
	for _, fx := range w.fxs {
		if err := e.put(fx.name, fx, putParams{mode: "rel", eb: relDefault}, false); err != nil {
			return err
		}
	}
	return w.cov.populate(e)
}

func (w *mixedCold) round(e *env, first bool) {
	e.flushProfiles()
	for _, ep := range w.episodes {
		_ = ep(e, first)
	}
}

func (w *mixedCold) cover() (*coverage, []string) {
	// Its own slices (a few dozen a round) count in ops_s; the slice
	// figures come from the coverage pass, which has the samples for a
	// tail as well.
	return w.cov, []string{"slice_p50_ms", "exact_slice_p50_ms"}
}

func (w *mixedCold) name() string { return "mixed-cold" }

func (w *mixedCold) probes() traceProbes { return traceProbes{slices: w.cov.reads, puts: w.cov.writes} }

func (w *mixedCold) description() string {
	return "mixed-cold: " + describe(w.fxs) + fmt.Sprintf(", %d episodes per round", len(w.episodes))
}
