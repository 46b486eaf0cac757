package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"rqm/client"
)

// dataset is the benchmark's own record of one live dataset: which fixture
// it holds and the pointwise bound its lossy tier owes the original.
type dataset struct {
	fx      *fixture
	mode    string
	eb      float64
	bound   float64
	exact   bool
	ratio   float64 // ratio reported at put (the recompaction targets' base)
	estPSNR float64
}

// env runs operations against the cluster, times them into a recorder and
// checks every answer with the oracle. Checking happens outside the timed
// calls.
type env struct {
	ctx context.Context
	cl  *cluster
	rec *recorder

	mu       sync.Mutex
	live     map[string]*dataset
	wrong    []string
	ratioAcc []float64 // 100·(1 − |est − realized|/realized) per checked put
	psnrGap  []float64 // |est PSNR − oracle PSNR| per checked put
}

func newEnv(ctx context.Context, cl *cluster) *env {
	return &env{ctx: ctx, cl: cl, rec: newRecorder(), live: map[string]*dataset{}}
}

// modelSampleRate is the model's default sampling rate (1%).
const modelSampleRate = 0.01

// flushProfiles empties every shard's profile cache, so each round starts
// from the same cache state.
func (e *env) flushProfiles() {
	for _, s := range e.cl.svcs {
		s.FlushProfiles()
	}
}

// reject records an answer the oracle refused.
func (e *env) reject(format string, args ...interface{}) {
	e.mu.Lock()
	e.wrong = append(e.wrong, fmt.Sprintf(format, args...))
	e.mu.Unlock()
}

func (e *env) dataset(name string) *dataset {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.live[name]
}

// names lists the live datasets in name order.
func (e *env) names() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.live))
	for n := range e.live {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// originalBytes sums the original bytes of the live datasets.
func (e *env) originalBytes() int64 {
	var n int64
	for _, d := range e.live {
		n += d.fx.originalBytes()
	}
	return n
}

// putParams is one dataset put's configuration; seed is the model's
// sampling seed (0 = the server's default).
type putParams struct {
	mode  string
	eb    float64
	exact bool
	chunk int
	seed  uint64
}

// put uploads fx as name through the router. With model set it also
// measures, outside the clock, the model's accuracy on this put: realized
// ratio from the raw container's size, estimated ratio from a profile and
// estimate on a shard, and the put's estimated PSNR against the PSNR the
// oracle computes from a lossy read.
func (e *env) put(name string, fx *fixture, p putParams, model bool) error {
	kind := "put"
	if p.exact {
		kind = "put_exact"
	}
	var info *client.DatasetInfo
	err := e.rec.time(kind, fx.originalBytes(), func() error {
		var err error
		info, err = e.cl.c.PutDataset(e.ctx, name, bytes.NewReader(fx.body), client.PutDatasetParams{
			Mode: p.mode, ErrorBound: p.eb, Exact: p.exact, ChunkValues: p.chunk, Seed: p.seed,
		})
		return err
	})
	if err != nil {
		return err
	}
	if info.ContentHash != hex.EncodeToString(fx.sha[:]) || info.TotalValues != int64(len(fx.orig.vals)) {
		e.reject("put %s: response names content %s with %d values", name, info.ContentHash, info.TotalValues)
	}
	d := &dataset{fx: fx, mode: p.mode, eb: p.eb, bound: absBound(p.mode, p.eb, fx.rng),
		exact: p.exact, ratio: info.Ratio, estPSNR: float64(info.EstPSNR)}
	e.mu.Lock()
	e.live[name] = d
	e.mu.Unlock()
	if model {
		return e.checkModel(name, nil)
	}
	return nil
}

// checkModel measures the model's accuracy on dataset name against est, the
// model's estimate at the put's bound; with est nil it asks shard 0 for one
// outside the clock.
func (e *env) checkModel(name string, est *client.EstimateResponse) error {
	d := e.dataset(name)
	var raw countWriter
	if err := e.cl.c.GetDatasetContainer(e.ctx, name, &raw); err != nil {
		return fmt.Errorf("model check %s: %w", name, err)
	}
	realized := float64(d.fx.originalBytes()) / float64(raw.n)
	if est == nil {
		// The explicit default sample rate builds the same profile the put
		// did but under its own cache key, so these checks never turn a
		// workload's cold profile into a cache hit.
		shard := e.cl.direct[0]
		pr, err := shard.Profile(e.ctx, bytes.NewReader(d.fx.body), client.ProfileParams{SampleRate: modelSampleRate})
		if err != nil {
			return fmt.Errorf("model check %s: %w", name, err)
		}
		if est, err = shard.Estimate(e.ctx, pr.Profile, d.eb, d.mode); err != nil {
			return fmt.Errorf("model check %s: %w", name, err)
		}
	}
	recon, err := e.read(name, false)
	if err != nil {
		return err
	}
	got := psnr(d.fx.orig.vals, recon.vals, d.fx.rng)
	if d.exact {
		if _, err := e.read(name, true); err != nil {
			return err
		}
	}
	e.mu.Lock()
	e.ratioAcc = append(e.ratioAcc, 100*(1-math.Abs(float64(est.Ratio)-realized)/realized))
	e.psnrGap = append(e.psnrGap, math.Abs(d.estPSNR-got))
	e.mu.Unlock()
	return nil
}

// read fetches name untimed and checks it: the lossy tier against the
// dataset's bound, the exact tier against the original's SHA-256.
func (e *env) read(name string, exact bool) (*rqmf, error) {
	var buf bytes.Buffer
	get := e.cl.c.GetDataset
	if exact {
		get = e.cl.c.GetDatasetExact
	}
	if err := get(e.ctx, name, &buf); err != nil {
		return nil, fmt.Errorf("check read %s: %w", name, err)
	}
	return e.checkFull(name, exact, buf.Bytes()), nil
}

// checkFull judges a full read of name and returns its parse (nil when the
// body does not parse).
func (e *env) checkFull(name string, exact bool, body []byte) *rqmf {
	d := e.dataset(name)
	if exact {
		if err := checkExact(d.fx.sha, body); err != nil {
			e.reject("exact get %s: %v", name, err)
		}
	}
	r, err := parseRQMF(body)
	if err != nil {
		e.reject("get %s: %v", name, err)
		return nil
	}
	if err := checkBound(d.fx.orig.vals, r.vals, d.bound, d.fx.orig.precBits); err != nil {
		e.reject("get %s: %v", name, err)
	}
	return r
}

// get is a timed full lossy read through the router; its bytes are the
// .rqmf delivered.
func (e *env) get(name string) error {
	var buf bytes.Buffer
	start := time.Now()
	err := e.cl.c.GetDataset(e.ctx, name, &buf)
	if err := e.rec.record("get", int64(buf.Len()), time.Since(start), err); err != nil {
		return err
	}
	e.checkFull(name, false, buf.Bytes())
	return nil
}

// slice is a timed read of [off, off+n) through the router.
func (e *env) slice(name string, off, n int, exact bool) error {
	var buf bytes.Buffer
	kind, fetch := "slice", e.cl.c.SliceDataset
	if exact {
		kind, fetch = "slice_exact", e.cl.c.SliceDatasetExact
	}
	if err := e.rec.time(kind, int64(n), func() error {
		return fetch(e.ctx, name, int64(off), int64(n), &buf)
	}); err != nil {
		return err
	}
	e.checkSlice(name, off, n, exact, buf.Bytes())
	return nil
}

// checkSlice judges a slice [off, off+n) of name.
func (e *env) checkSlice(name string, off, n int, exact bool, body []byte) {
	d := e.dataset(name)
	if exact {
		if !bytes.Equal(body, sliceBody(d.fx.orig, off, n)) {
			e.reject("exact slice %s[%d:+%d]: bytes differ from the original", name, off, n)
		}
		return
	}
	r, err := parseRQMF(body)
	if err != nil {
		e.reject("slice %s: %v", name, err)
		return
	}
	if err := checkBound(d.fx.orig.vals[off:off+n], r.vals, d.bound, d.fx.orig.precBits); err != nil {
		e.reject("slice %s[%d:+%d]: %v", name, off, n, err)
	}
}

// profile posts fx to shard for a sampling pass. Cold builds and cache hits
// are recorded as separate kinds.
func (e *env) profile(shard int, fx *fixture, p client.ProfileParams) (*client.ProfileResponse, error) {
	start := time.Now()
	pr, err := e.cl.direct[shard].Profile(e.ctx, bytes.NewReader(fx.body), p)
	kind := "profile"
	if err == nil && pr.Cached {
		kind = "profile_hit"
	}
	if err := e.rec.record(kind, 0, time.Since(start), err); err != nil {
		return nil, err
	}
	if pr.N != len(fx.orig.vals) || math.Abs(pr.Range-fx.rng) > 1e-9*math.Max(1, fx.rng) {
		e.reject("profile %s: n=%d range=%g, want n=%d range=%g", fx.name, pr.N, pr.Range, len(fx.orig.vals), fx.rng)
	}
	return pr, nil
}

// estimate asks shard for the model's answer at one bound.
func (e *env) estimate(shard int, id string, eb float64, mode string) (*client.EstimateResponse, error) {
	var est *client.EstimateResponse
	err := e.rec.time("estimate", 0, func() error {
		var err error
		est, err = e.cl.direct[shard].Estimate(e.ctx, id, eb, mode)
		return err
	})
	if err == nil && !(float64(est.Ratio) > 1) {
		e.reject("estimate %s at %g: ratio %g", id, eb, float64(est.Ratio))
	}
	return est, err
}

// solve inverts the model on shard for one target.
func (e *env) solve(shard int, id string, t client.SolveTarget) (*client.SolveResponse, error) {
	var sr *client.SolveResponse
	err := e.rec.time("solve", 0, func() error {
		var err error
		sr, err = e.cl.direct[shard].Solve(e.ctx, id, t)
		return err
	})
	if err == nil && !(sr.AbsEB > 0) {
		e.reject("solve %s for %s %g: bound %g", id, t.Kind, t.Value, sr.AbsEB)
	}
	return sr, err
}

// recompact rewrites name toward t, then checks (untimed) that the stored
// copy is within the new_bound the response reports.
func (e *env) recompact(name string, t client.SolveTarget, adaptive bool) error {
	var opts []client.RecompactOption
	if adaptive {
		opts = append(opts, client.WithAdaptiveSpace())
	}
	var rr *client.RecompactResponse
	if err := e.rec.time("recompact", 0, func() error {
		var err error
		rr, err = e.cl.c.RecompactDataset(e.ctx, name, t, opts...)
		return err
	}); err != nil {
		return err
	}
	d := e.dataset(name)
	if rr.NewBound < d.bound*(1-1e-12) {
		e.reject("recompact %s: new_bound %g below the stored bound %g", name, rr.NewBound, d.bound)
	}
	e.mu.Lock()
	d.bound = rr.NewBound
	e.mu.Unlock()
	_, err := e.read(name, false)
	return err
}

// promote installs the residual layer, proving the original to the server.
func (e *env) promote(name string) error {
	d := e.dataset(name)
	var info *client.DatasetInfo
	if err := e.rec.time("promote", 0, func() error {
		var err error
		info, err = e.cl.c.PromoteDataset(e.ctx, name, bytes.NewReader(d.fx.body))
		return err
	}); err != nil {
		return err
	}
	if !info.Exact {
		e.reject("promote %s: response reports no residual layer", name)
	}
	e.mu.Lock()
	d.exact = true
	e.mu.Unlock()
	return nil
}

// demote drops the residual layer.
func (e *env) demote(name string) error {
	d := e.dataset(name)
	var info *client.DatasetInfo
	if err := e.rec.time("demote", 0, func() error {
		var err error
		info, err = e.cl.c.DemoteDataset(e.ctx, name)
		return err
	}); err != nil {
		return err
	}
	if info.Exact {
		e.reject("demote %s: response still reports a residual layer", name)
	}
	e.mu.Lock()
	d.exact = false
	e.mu.Unlock()
	return nil
}

// del deletes name through the router.
func (e *env) del(name string) error {
	if err := e.rec.time("delete", 0, func() error { return e.cl.c.DeleteDataset(e.ctx, name) }); err != nil {
		return err
	}
	e.mu.Lock()
	delete(e.live, name)
	e.mu.Unlock()
	return nil
}

// countWriter counts bytes written to it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}
