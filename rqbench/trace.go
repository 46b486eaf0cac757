package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"rqm"
	"rqm/client"
	"rqm/internal/codec"
	"rqm/internal/grid"
	"rqm/internal/partition"
	"rqm/internal/residual"
	"rqm/internal/store"
)

// The traced run (--trace 1) replays a seeded sample of the workload's
// operations at each layer's public entry point, outermost first, and
// derives per-layer times: router → shard over TCP → Service.ServeHTTP in
// process → store → stream/codec/core/partition/residual. A layer's self
// time is its median minus the medians of the layers it calls. Spans are
// kept in memory and written to .bench_build/trace-<workload>.json at the
// end.

// span is one timed call; parent links a layer call to its replayed
// operation.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	lat   map[string][]float64 // ms per span name
}

func newTracer() *tracer { return &tracer{t0: time.Now(), lat: map[string][]float64{}} }

// root opens a replayed operation and returns its span id.
func (t *tracer) root(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := float64(time.Since(t.t0).Nanoseconds()) / 1e6
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, End: now})
	return len(t.spans)
}

// op records a finished top-level operation of duration d.
func (t *tracer) op(name string, d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	end := float64(time.Since(t.t0).Nanoseconds()) / 1e6
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: end - float64(d.Nanoseconds())/1e6, End: end})
}

// call times fn as layer span name under parent.
func (t *tracer) call(parent int, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: float64(start.Sub(t.t0).Nanoseconds()) / 1e6, End: float64(end.Sub(t.t0).Nanoseconds()) / 1e6})
	t.lat[name] = append(t.lat[name], float64(end.Sub(start).Nanoseconds())/1e6)
	if p := &t.spans[parent-1]; t.spans[len(t.spans)-1].End > p.End {
		p.End = t.spans[len(t.spans)-1].End
	}
	return nil
}

func (t *tracer) med(name string) float64 { return median(t.lat[name]) }

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// traceProbes is what the replay samples: slice targets (datasets with a
// residual layer) and put fixtures.
type traceProbes struct {
	slices []*fixture
	puts   []*fixture
}

const (
	traceSlices     = 64  // slice replays per replay round
	traceBatch      = 200 // EstimateAt calls per timed batch
	solveBatch      = 10  // inverse solves per timed batch
	traceResidualBE = "ans"
)

// layerStats accumulates the replay's per-layer ratios.
type layerStats struct {
	readAmp, ratioAcc, resBytes, writeBytes, regions []float64
	streamW, compress, decompress, streamR, resEnc   rate
	ops                                              int
}

// rate accumulates MB over seconds.
type rate struct{ bytes, secs float64 }

func (r *rate) add(b int64, d time.Duration) { r.bytes += float64(b); r.secs += d.Seconds() }
func (r rate) mbs() float64                  { return r.bytes / 1e6 / r.secs }

func runTraced(w workload, e *env, seed uint64, seconds int) error {
	tr := newTracer()
	cl := e.cl
	before := cl.counters()
	allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

	// One round of the workload's own mix with per-operation spans: its
	// ops_s against the untraced run's is the tracing overhead.
	e.rec = newRecorder()
	e.rec.spans = tr
	w.round(e, false)
	fmt.Printf("traced round: ops_s=%.4f\n", e.rec.opsPerSecond())
	e.rec.spans = nil

	probes := w.probes()
	owners := map[string]int{}
	for _, fx := range probes.slices {
		o, err := cl.owner(e.ctx, fx.name)
		if err != nil {
			return err
		}
		owners[fx.name] = o
	}
	rng := rngFor(seed, "trace-"+w.name())
	var st layerStats
	metrics.Read(allocs)
	alloc0 := allocs[0].Value.Uint64()
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < time.Duration(seconds)*time.Second; round++ {
		e.flushProfiles()
		for i := 0; i < traceSlices; i++ {
			fx := probes.slices[i%len(probes.slices)]
			full := len(fx.orig.vals) / sliceValues
			off := rng.IntN(full) * sliceValues
			if err := replaySlice(tr, e, fx, owners[fx.name], off, i%4 == 3, &st); err != nil {
				return err
			}
		}
		for i, fx := range probes.puts {
			if err := replayPut(tr, e, fx, fmt.Sprintf("trace-%d-%d", round, i), &st); err != nil {
				return err
			}
		}
	}
	metrics.Read(allocs)
	allocMB := float64(allocs[0].Value.Uint64()-alloc0) / 1e6
	if err := cl.quiesce(); err != nil {
		return err
	}
	d := cl.counters().sub(before)
	hitRatio := 0.0
	if d.profileHits+d.profileBuilds > 0 {
		hitRatio = float64(d.profileHits) / float64(d.profileHits+d.profileBuilds)
	}

	nest := []string{"router.slice", "shard.slice", "service.slice", "store.read_range", "codec.chunk_decode"}
	for i := 1; i < len(nest); i++ {
		fmt.Printf("nesting %s %.4f ms >= %s %.4f ms: %v\n", nest[i-1], tr.med(nest[i-1]), nest[i], tr.med(nest[i]),
			tr.med(nest[i-1]) >= tr.med(nest[i]))
	}
	nest = []string{"router.put", "shard.put", "service.put", "store.put"}
	for i := 1; i < len(nest); i++ {
		fmt.Printf("nesting %s %.4f ms >= %s %.4f ms: %v\n", nest[i-1], tr.med(nest[i-1]), nest[i], tr.med(nest[i]),
			tr.med(nest[i-1]) >= tr.med(nest[i]))
	}

	ms := map[string]metric{
		"router.hop_p50_ms":             {tr.med("router.slice") - tr.med("shard.slice"), "ms"},
		"router.put_overhead_p50_ms":    {tr.med("router.put") - tr.med("shard.put"), "ms"},
		"router.failovers":              {float64(d.failovers), "count"},
		"router.read_repairs":           {float64(d.readRepairs), "count"},
		"router.quorum_failures":        {float64(d.quorumFailures), "count"},
		"service.slice_self_p50_ms":     {tr.med("service.slice") - tr.med("store.manifest") - tr.med("store.read_range"), "ms"},
		"service.put_p50_ms":            {tr.med("service.put"), "ms"},
		"service.estimate_p50_us":       {1000 * tr.med("service.estimate"), "us"},
		"service.profile_hit_ratio":     {hitRatio, "ratio"},
		"service.rejected":              {float64(d.rejected), "count"},
		"store.put_p50_ms":              {tr.med("store.put"), "ms"},
		"store.verify_p50_ms":           {tr.med("store.verify"), "ms"},
		"store.read_range_p50_ms":       {tr.med("store.read_range"), "ms"},
		"store.read_range_exact_p50_ms": {tr.med("store.read_range_exact"), "ms"},
		"store.read_amp":                {mean(st.readAmp), "ratio"},
		"store.write_bytes_per_byte":    {mean(st.writeBytes), "ratio"},
		"stream.write_mb_s":             {st.streamW.mbs(), "MB/s"},
		"stream.read_mb_s":              {st.streamR.mbs(), "MB/s"},
		"codec.compress_mb_s":           {st.compress.mbs(), "MB/s"},
		"codec.decompress_mb_s":         {st.decompress.mbs(), "MB/s"},
		"codec.chunk_decode_p50_ms":     {tr.med("codec.chunk_decode"), "ms"},
		"core.profile_p50_ms":           {tr.med("core.profile"), "ms"},
		"core.estimate_p50_us":          {1000 * tr.med("core.estimate") / traceBatch, "us"},
		"core.solve_p50_us":             {1000 * tr.med("core.solve") / solveBatch, "us"},
		"core.ratio_acc_pct":            {mean(st.ratioAcc), "%"},
		"partition.plan_p50_ms":         {tr.med("partition.plan"), "ms"},
		"partition.regions":             {mean(st.regions), "count"},
		"residual.encode_mb_s":          {st.resEnc.mbs(), "MB/s"},
		"residual.block_decode_p50_ms":  {tr.med("residual.block_decode"), "ms"},
		"residual.bytes_per_byte":       {mean(st.resBytes), "ratio"},
		"go.alloc_mb_per_op":            {allocMB / float64(st.ops), "MB"},
	}
	fmt.Printf("replay: %d operations in %.2fs\n", st.ops, time.Since(start).Seconds())
	if err := tr.write(filepath.Join(filepath.Dir(filepath.Dir(cl.root)), "trace-"+w.name()+".json")); err != nil {
		return err
	}
	return emit(e, ms, e.rec)
}

// replaySlice times one slice at every layer from the router down to the
// chunk decode and the residual block.
func replaySlice(tr *tracer, e *env, fx *fixture, owner, off int, exact bool, st *layerStats) error {
	cl := e.cl
	sv, stor := cl.svcs[owner], cl.stores[owner]
	id := tr.root("slice " + fx.name)
	st.ops++
	var buf bytes.Buffer
	if err := tr.call(id, "router.slice", func() error { return cl.c.SliceDataset(e.ctx, fx.name, int64(off), sliceValues, &buf) }); err != nil {
		return err
	}
	e.checkSlice(fx.name, off, sliceValues, false, buf.Bytes())
	if err := tr.call(id, "shard.slice", func() error {
		return cl.direct[owner].SliceDataset(e.ctx, fx.name, int64(off), sliceValues, io.Discard)
	}); err != nil {
		return err
	}
	url := fmt.Sprintf("/v1/datasets/%s/slice?off=%d&len=%d", fx.name, off, sliceValues)
	if err := tr.call(id, "service.slice", func() error { return serveInProcess(sv, http.MethodGet, url, nil) }); err != nil {
		return err
	}
	if err := tr.call(id, "store.verify", func() error { return stor.VerifyDataset(fx.name, false) }); err != nil {
		return err
	}
	// What the slice handler runs: the manifest, then the covering chunks.
	var m *store.Manifest
	if err := tr.call(id, "store.manifest", func() error {
		var err error
		m, err = stor.Manifest(fx.name)
		return err
	}); err != nil {
		return err
	}
	var vals []float64
	if err := tr.call(id, "store.read_range", func() error {
		var err error
		vals, err = stor.ReadRangeWith(m, int64(off), sliceValues)
		return err
	}); err != nil {
		return err
	}
	if err := checkBound(fx.orig.vals[off:off+sliceValues], vals, e.dataset(fx.name).bound, fx.orig.precBits); err != nil {
		e.reject("traced read_range %s: %v", fx.name, err)
	}
	if exact {
		if err := tr.call(id, "store.read_range_exact", func() error {
			got, err := stor.ReadRangeExact(m, int64(off), sliceValues)
			if err == nil && !equalBits(got, fx.orig.vals[off:off+sliceValues]) {
				e.reject("traced read_range_exact %s: values differ from the original", fx.name)
			}
			return err
		}); err != nil {
			return err
		}
	}
	// Every chunk the slice covers is decoded whole; the first one is
	// replayed below the store, with its residual block.
	var first, decoded int64
	for i, en := range m.IndexEntries() {
		end := first + int64(en.Values)
		if end > int64(off) && first < int64(off+sliceValues) {
			if decoded == 0 {
				if err := replayBlock(tr, id, stor, fx, m, i, en, first); err != nil {
					return err
				}
			}
			decoded += int64(en.Values)
		}
		first = end
	}
	st.readAmp = append(st.readAmp, float64(decoded)/sliceValues)
	return nil
}

// replayBlock times the chunk decode and the residual block decode + XOR
// for chunk i (whose first value is at start).
func replayBlock(tr *tracer, id int, stor *store.Store, fx *fixture, m *store.Manifest, i int, entry codec.IndexEntry, start int64) error {
	cpath, err := stor.ContainerPath(fx.name)
	if err != nil {
		return err
	}
	cf, err := os.Open(cpath)
	if err != nil {
		return err
	}
	defer cf.Close()
	var recon []float64
	if err := tr.call(id, "codec.chunk_decode", func() error {
		var err error
		recon, err = rqm.ReadStreamChunk(cf, entry)
		return err
	}); err != nil {
		return err
	}
	if m.Residual == nil {
		return nil
	}
	rpath, err := stor.ResidualPath(fx.name)
	if err != nil {
		return err
	}
	rf, err := os.Open(rpath)
	if err != nil {
		return err
	}
	defer rf.Close()
	idx, err := residual.LoadIndex(rf)
	if err != nil {
		return err
	}
	return tr.call(id, "residual.block_decode", func() error {
		res, err := residual.ReadBlock(rf, idx.Header, idx.Blocks[i])
		if err != nil {
			return err
		}
		if err := residual.Apply(recon, res, grid.Precision(fx.orig.precBits)); err != nil {
			return err
		}
		if !equalBits(recon, fx.orig.vals[start:start+int64(len(recon))]) {
			return fmt.Errorf("residual block %d does not restore the original", i)
		}
		return nil
	})
}

// replayPut times one put at every layer: router fan-out, one shard over
// TCP, the service in process, the store's staging of an encoded container,
// and the library stages under them (stream write, compress, decompress,
// profile, estimate, solve, partition plan, residual encode, stream read).
func replayPut(tr *tracer, e *env, fx *fixture, name string, st *layerStats) error {
	cl := e.cl
	id := tr.root("put " + fx.name)
	st.ops++
	before, err := cl.storedBytes()
	if err != nil {
		return err
	}
	if err := tr.call(id, "router.put", func() error {
		return e.put(name, fx, putParams{mode: "rel", eb: relDefault}, false)
	}); err != nil {
		return err
	}
	after, err := cl.storedBytes()
	if err != nil {
		return err
	}
	st.writeBytes = append(st.writeBytes, float64(after-before)/float64(fx.originalBytes()))
	if err := e.del(name); err != nil {
		return err
	}
	if err := tr.call(id, "shard.put", func() error {
		_, err := cl.direct[0].PutDataset(e.ctx, name, bytes.NewReader(fx.body), client.PutDatasetParams{Mode: "rel", ErrorBound: relDefault})
		return err
	}); err != nil {
		return err
	}
	if err := tr.call(id, "service.put", func() error {
		return serveInProcess(cl.svcs[1], http.MethodPost, "/v1/datasets/"+name+"?mode=rel&eb=0.001", fx.body)
	}); err != nil {
		return err
	}
	// The store alone: stage a copy of shard 0's encoded container.
	stor := cl.stores[0]
	m, err := stor.Manifest(name)
	if err != nil {
		return err
	}
	cpath, err := stor.ContainerPath(name)
	if err != nil {
		return err
	}
	container, err := os.ReadFile(cpath)
	if err != nil {
		return err
	}
	if err := tr.call(id, "store.put", func() error {
		_, err := stor.Put(name+"-copy", func(w io.Writer) (*store.Manifest, error) {
			cp := *m
			_, err := w.Write(container)
			return &cp, err
		})
		return err
	}); err != nil {
		return err
	}
	for _, del := range []func() error{
		func() error { return stor.Delete(name + "-copy") },
		func() error { return stor.Delete(name) },
		func() error { return cl.stores[1].Delete(name) },
	} {
		if err := del(); err != nil {
			return err
		}
	}

	// In-process estimate against a freshly built profile.
	pbody, err := serveJSON(cl.svcs[2], http.MethodPost, "/v1/profile", fx.body)
	if err != nil {
		return err
	}
	var pr struct {
		Profile string `json:"profile"`
	}
	if err := json.Unmarshal(pbody, &pr); err != nil {
		return err
	}
	if err := tr.call(id, "service.estimate", func() error {
		return serveInProcess(cl.svcs[2], http.MethodGet, "/v1/estimate?profile="+pr.Profile+"&eb=0.001", nil)
	}); err != nil {
		return err
	}
	return replayLibrary(tr, id, fx, container, st)
}

func replayLibrary(tr *tracer, id int, fx *fixture, container []byte, st *layerStats) error {
	f, err := rqm.FieldFromData(fx.name, rqm.Precision(fx.orig.precBits), fx.orig.vals, fx.orig.dims...)
	if err != nil {
		return err
	}
	eng, err := rqm.NewEngine(rqm.WithMode(rqm.REL), rqm.WithErrorBound(relDefault))
	if err != nil {
		return err
	}
	orig := fx.originalBytes()
	t := time.Now()
	if err := tr.call(id, "stream.write", func() error {
		sw, err := eng.NewFieldStreamWriter(io.Discard, f)
		if err != nil {
			return err
		}
		if err := sw.WriteValues(f.Data); err != nil {
			sw.Close()
			return err
		}
		return sw.Close()
	}); err != nil {
		return err
	}
	st.streamW.add(orig, time.Since(t))
	var res *rqm.CodecResult
	t = time.Now()
	if err := tr.call(id, "codec.compress", func() error { res, err = eng.Compress(f); return err }); err != nil {
		return err
	}
	st.compress.add(orig, time.Since(t))
	var recon *rqm.Field
	t = time.Now()
	if err := tr.call(id, "codec.decompress", func() error { recon, err = eng.Decompress(res.Bytes); return err }); err != nil {
		return err
	}
	st.decompress.add(orig, time.Since(t))
	t = time.Now()
	if err := tr.call(id, "stream.read", func() error {
		r, err := rqm.NewReader(bytes.NewReader(container))
		if err != nil {
			return err
		}
		_, err = r.ReadAll()
		return err
	}); err != nil {
		return err
	}
	st.streamR.add(orig, time.Since(t))

	var p *rqm.Profile
	if err := tr.call(id, "core.profile", func() error { p, err = eng.Profile(f); return err }); err != nil {
		return err
	}
	abs := relDefault * fx.rng
	var est rqm.Estimate
	if err := tr.call(id, "core.estimate", func() error {
		for i := 0; i < traceBatch; i++ {
			est = p.EstimateAt(abs * (1 + float64(i)/traceBatch))
		}
		return nil
	}); err != nil {
		return err
	}
	est = p.EstimateAt(abs)
	realized := float64(orig) / float64(len(res.Bytes))
	st.ratioAcc = append(st.ratioAcc, 100*(1-math.Abs(est.Ratio-realized)/realized))
	if err := tr.call(id, "core.solve", func() error {
		for i := 0; i < solveBatch/2; i++ {
			if _, err := p.ErrorBoundForRatio(realized * (1.2 + float64(i)/solveBatch)); err != nil {
				return err
			}
			if _, err := p.ErrorBoundForPSNR(est.PSNR - 6 - float64(i)/solveBatch); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	// The plan an adaptive-space recompaction to a PSNR target makes.
	env := partition.Env{Codec: eng.Codec(), Copts: eng.Options(), Prec: grid.Precision(fx.orig.precBits),
		Dims: fx.orig.dims, ChunkValues: chunkValues,
		Policy: &partition.AdaptiveBound{TargetPSNR: math.Round(est.PSNR - coldPSNRDrop)}}
	var plan partition.Plan
	if err := tr.call(id, "partition.plan", func() error {
		plan, err = partition.VarianceQuadtree{}.Partition(f.Data, env)
		return err
	}); err != nil {
		return err
	}
	st.regions = append(st.regions, float64(len(plan.Regions)))

	be, err := residual.ByName(traceResidualBE)
	if err != nil {
		return err
	}
	var n int64
	t = time.Now()
	if err := tr.call(id, "residual.encode", func() error {
		var cw countWriter
		_, err := residual.Encode(&cw, be, grid.Precision(fx.orig.precBits), f.Data, recon.Data, []int{len(f.Data)})
		n = cw.n
		return err
	}); err != nil {
		return err
	}
	st.resEnc.add(orig, time.Since(t))
	st.resBytes = append(st.resBytes, float64(n)/float64(orig))
	return nil
}

// serveInProcess runs one request through h without a network hop and
// fails on a non-2xx answer.
func serveInProcess(h http.Handler, method, url string, body []byte) error {
	_, err := serveJSON(h, method, url, body)
	return err
}

func serveJSON(h http.Handler, method, url string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, url, rd)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code >= 300 {
		return nil, fmt.Errorf("%s %s: %d %s", method, url, rec.Code, strconv.Quote(rec.Body.String()))
	}
	return rec.Body.Bytes(), nil
}

// equalBits compares values at their bit patterns.
func equalBits(a, b []float64) bool {
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
