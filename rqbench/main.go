// Command rqbench is the end-to-end benchmark of the rqm serving stack. It
// starts a three-shard, R=2 cluster in-process (each service shard on its
// own store, all behind the router over loopback TCP, default
// configurations), drives one seeded workload through the client package,
// checks every answer with its own oracle and prints every metric by name
// and unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Usage (from the repository root; see README.md):
//
//	bash rqbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
//	bash rqbench/run.sh --workload ingest --seed 1 --spread 5
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"
)

// setups is how many times a run builds its cluster; setup_s is the median.
const setups = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "", "ingest, read-hot or mixed-cold")
	seed := flag.Uint64("seed", 1, "workload seed: fixes fixtures and operation sequence")
	seconds := flag.Int("seconds", 10, "minimum length of the timed phase; whole rounds run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	spread := flag.Int("spread", 0, "run the workload N times (seeds seed..seed+N-1) and print per-metric spread")
	flag.Parse()
	if err := run(*workloadName, *seed, *seconds, *trace, *spread); err != nil {
		fmt.Fprintln(os.Stderr, "rqbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace, spread int) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("want --seconds >= 1 and --trace 0 or 1")
	}
	if spread > 0 {
		return spreadRuns(name, seed, seconds, trace, spread)
	}
	w, err := newWorkload(name)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if err := w.prepare(seed); err != nil {
		return fmt.Errorf("fixtures: %w", err)
	}
	fmt.Printf("fixtures: %s, synthesized in %.2fs\n", w.description(), time.Since(t0).Seconds())

	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	base, err := os.MkdirTemp(filepath.Join(wd, ".bench_build"), "stores-")
	if err != nil {
		return fmt.Errorf("store roots: %w (run from the repository root through run.sh)", err)
	}
	defer os.RemoveAll(base)

	ctx := context.Background()
	var setupTimes []float64
	var cl *cluster
	var e *env
	for i := 0; i < setups; i++ {
		if cl != nil {
			cl.close()
		}
		start := time.Now()
		if cl, err = startCluster(filepath.Join(base, fmt.Sprint(i))); err != nil {
			return err
		}
		e = newEnv(ctx, cl)
		if err := w.populate(e); err != nil {
			cl.close()
			return fmt.Errorf("populate: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
	}
	defer cl.close()
	if err := cl.quiesce(); err != nil {
		return err
	}
	// Untimed: read back every pre-populated dataset, which checks the
	// set-up's puts and adds their model-accuracy samples.
	for _, name := range e.names() {
		if err := e.checkModel(name, nil); err != nil {
			return err
		}
	}
	if trace == 1 {
		return runTraced(w, e, seed, seconds)
	}

	// Timed phase: whole rounds until the time is up. Each measured phase
	// starts from a collected heap, so when the collector runs inside it
	// depends on the phase's own allocations, not on the set-up's.
	runtime.GC()
	e.rec = newRecorder()
	before := cl.counters()
	heap := startHeapSampler()
	start := time.Now()
	rounds := 0
	for first := true; ; first = false {
		w.round(e, first)
		rounds++
		if time.Since(start) >= time.Duration(seconds)*time.Second {
			break
		}
	}
	peak := heap.stop()
	loop := time.Since(start)
	timed := e.rec
	if err := cl.quiesce(); err != nil {
		return err
	}
	stored, err := cl.storedBytes()
	if err != nil {
		return err
	}
	liveBytes := e.originalBytes()

	cov, fromCover := w.cover()
	runtime.GC()
	e.rec = newRecorder()
	if err := cov.run(e); err != nil {
		return err
	}
	coverRec := e.rec
	if err := cl.quiesce(); err != nil {
		return err
	}
	delta := cl.counters().sub(before)

	src := func(metric string) *recorder {
		for _, m := range fromCover {
			if m == metric {
				return coverRec
			}
		}
		return timed
	}
	ms := map[string]metric{
		"setup_s":               {median(setupTimes), "s"},
		"ops_s":                 {timed.opsPerSecond(), "1/s"},
		"put_mb_s":              {src("put_mb_s").mbPerSecond("put", "put_exact"), "MB/s"},
		"put_p50_ms":            {median(src("put_p50_ms").samples("put", "put_exact")), "ms"},
		"slice_p50_ms":          {median(src("slice_p50_ms").samples("slice")), "ms"},
		"exact_slice_p50_ms":    {median(src("exact_slice_p50_ms").samples("slice_exact")), "ms"},
		"get_mb_s":              {src("get_mb_s").mbPerSecond("get"), "MB/s"},
		"estimate_p50_us":       {1000 * median(src("estimate_p50_us").samples("estimate")), "us"},
		"profile_p50_ms":        {median(src("profile_p50_ms").samples("profile")), "ms"},
		"recompact_p50_ms":      {median(src("recompact_p50_ms").samples("recompact")), "ms"},
		"stored_bytes_per_byte": {float64(stored) / float64(liveBytes), "ratio"},
		"model_ratio_acc_pct":   {mean(e.ratioAcc), "%"},
		"model_psnr_gap_db":     {median(e.psnrGap), "dB"},
		"peak_heap_mb":          {peak / 1e6, "MB"},
	}

	fmt.Printf("timed phase: %d rounds in %.2fs; coverage pass on %v\n", rounds, loop.Seconds(), fromCover)
	fmt.Printf("model checks: %d puts\n", len(e.ratioAcc))
	// The slice tail is printed, not gated: on a 2-vCPU VM it follows the
	// host's scheduling bursts far more than the program (see README).
	tail := src("slice_p50_ms").samples("slice")
	fmt.Printf("slice tail: p99 %.4f ms over %d lossy slices\n", quantile(tail, 0.99), len(tail))
	printCounts("timed", timed)
	printCounts("coverage", coverRec)
	fmt.Printf("counters: failovers=%d read_repairs=%d read_repair_failures=%d quorum_failures=%d router_errors=%d rejected_429=%d service_errors=%d\n",
		delta.failovers, delta.readRepairs, delta.repairFailures, delta.quorumFailures, delta.routerErrors, delta.rejected, delta.serviceErrors)
	return emit(e, ms, timed, coverRec)
}

// printCounts prints attempted and failed per operation kind.
func printCounts(phase string, r *recorder) {
	kinds := make([]string, 0, len(r.attempted))
	for k := range r.attempted {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		fmt.Printf("ops %-8s %-12s attempted=%-6d failed=%d\n", phase, k, r.attempted[k], r.failed[k])
	}
	if r.firstErr != nil {
		fmt.Printf("first failure (%s): %v\n", phase, r.firstErr)
	}
}

// emit prints the result line. A metric without samples is an error: the
// run did not measure what it reports.
func emit(e *env, ms map[string]metric, recs ...*recorder) error {
	res := result{Correct: len(e.wrong) == 0, Metrics: ms}
	for _, r := range recs {
		a, f := r.totals()
		res.Attempted += a
		res.Failed += f
	}
	for i, w := range e.wrong {
		if i == 5 {
			fmt.Printf("... %d more oracle rejections\n", len(e.wrong)-5)
			break
		}
		fmt.Println("oracle rejected:", w)
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s has no finite value (no samples)", name)
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// heapSampler records the peak of live heap objects while running.
type heapSampler struct {
	stopc chan struct{}
	done  chan float64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan float64)}
	go func() {
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak float64
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			peak = math.Max(peak, float64(s[0].Value.Uint64()))
			select {
			case <-h.stopc:
				h.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() float64 {
	close(h.stopc)
	return <-h.done
}

// spreadRuns runs the workload n times in child processes, one seed each,
// and prints per metric the median, the quartiles (Python's
// statistics.quantiles, exclusive method), the interquartile range and
// (max − min) as shares of the median.
func spreadRuns(name string, seed uint64, seconds, trace, n int) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	vals := map[string][]float64{}
	units := map[string]string{}
	failShares := map[string]bool{}
	for i := 0; i < n; i++ {
		s := seed + uint64(i)
		res, err := childRun(exe, name, s, seconds, trace)
		if err != nil {
			return fmt.Errorf("seed %d: %w", s, err)
		}
		failShares[fmt.Sprintf("%d/%d", res.Failed, res.Attempted)] = true
		fmt.Printf("seed %d: correct=%v attempted=%d failed=%d\n", s, res.Correct, res.Attempted, res.Failed)
		for k, m := range res.Metrics {
			vals[k] = append(vals[k], m.Value)
			units[k] = m.Unit
		}
	}
	names := make([]string, 0, len(vals))
	for k := range vals {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%-34s %-6s %12s %12s %12s %8s %8s  %s\n", "metric", "unit", "median", "q1", "q3", "iqr/med", "rng/med", "values by seed")
	for _, k := range names {
		xs := vals[k]
		q := quartiles(xs)
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("%-34s %-6s %12.5g %12.5g %12.5g %8.4f %8.4f  %.5g\n", k, units[k], q[1], q[0], q[2],
			(q[2]-q[0])/math.Abs(q[1]), (hi-lo)/math.Abs(q[1]), xs)
	}
	return nil
}

// quartiles ports Python's statistics.quantiles(xs, n=4) (exclusive
// method): q1, median, q3.
func quartiles(xs []float64) [3]float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	var out [3]float64
	if ld == 1 {
		return [3]float64{d[0], d[0], d[0]}
	}
	const n = 4
	m := ld + 1
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (d[j-1]*float64(n-delta) + d[j]*float64(delta)) / n
	}
	return out
}

func childRun(exe, name string, seed uint64, seconds, trace int) (*result, error) {
	out, err := command(exe, "--workload", name, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("parsing result line: %w", err)
	}
	return &res, nil
}

// command runs exe with args, passing its standard error through, and
// returns its standard output once it has exited.
func command(exe string, args ...string) (string, error) {
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	return string(out), err
}
