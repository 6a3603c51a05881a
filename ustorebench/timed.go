package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ustore/internal/obs"
)

// instance is one fresh copy of a workload. Setup builds the system and
// places its initial state (timed as setup_s); Run executes the timed
// phase (run_s); Finish runs the correctness gates and summarizes the
// simulated outcome. Layers adds the per-layer counters only the workload code
// can see (a traced run calls it after Finish). rec is nil on untraced
// iterations.
type instance interface {
	Setup(rec *obs.Recorder) error
	Run() error
	Finish() outcome
	Layers(l layers)
}

// outcome is the simulated result of one workload run. Everything in it is
// a pure function of the seed.
type outcome struct {
	// Attempted foreground ops and how many failed (errored, shed,
	// throttled or timed out).
	Attempted, Failed int
	// Completed foreground ops over SimSeconds of simulated time.
	Completed  int
	SimSeconds float64
	// Latency covers the workload's reported op class (see reasoning.json).
	// Hist optionally carries a latency histogram a pass can pool (see
	// poolOutcomes).
	P50, P99 time.Duration
	Samples  int
	Hist     *histogram
	// Violations lists every failed correctness gate.
	Violations []string
	// Text is the canonical rendering of the simulated outputs; Digest is
	// its sha256.
	Text   string
	Digest string
}

// seal computes the digest over the canonical text.
func (o *outcome) seal() {
	sum := sha256.Sum256([]byte(o.Text))
	o.Digest = hex.EncodeToString(sum[:])
}

// minIterations is the fewest setup+run repetitions a timed run makes, so
// every reported host metric is a median of at least three samples.
const minIterations = 3

// minSetups is the fewest set-up timings setup_s is the median of.
const minSetups = 9

// subSeed derives sub-run j's seed; sub-run 0 uses the seed itself.
func subSeed(seed int64, j int) int64 { return seed + int64(j)*1000003 }

// timedRun makes passes over the workload's sub-seeds until seconds have
// passed (and at least one pass and minIterations repetitions are done),
// then reports end-to-end metrics: medians of the host measurements and
// the simulated outcome pooled over the first pass.
func timedRun(name string, def workloadDef, seed int64, seconds int) (*result, error) {
	var setups, runs, peaks []float64
	var pass []outcome
	var violations []string
	budget := time.Duration(seconds) * time.Second
	start := time.Now()
	for i := 0; i < def.pool || i < minIterations || time.Since(start) < budget; i++ {
		j := i % def.pool
		inst := def.mk(subSeed(seed, j))
		runtime.GC()
		t0 := time.Now()
		if err := inst.Setup(nil); err != nil {
			return nil, fmt.Errorf("setup (sub-seed %d): %w", subSeed(seed, j), err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		hs := startHeapSampler()
		t1 := time.Now()
		if err := inst.Run(); err != nil {
			return nil, fmt.Errorf("run (sub-seed %d): %w", subSeed(seed, j), err)
		}
		runs = append(runs, time.Since(t1).Seconds())
		peaks = append(peaks, float64(hs.stop())/(1<<20))
		out := inst.Finish()
		if i < def.pool {
			pass = append(pass, out)
			continue
		}
		if out.Digest != pass[j].Digest {
			violations = append(violations, fmt.Sprintf(
				"determinism: sub-seed %d repetition digest %s differs from its first run (%s)",
				subSeed(seed, j), out.Digest, pass[j].Digest))
		}
	}
	// Set-up is short next to the timed phase on some workloads, so top
	// its sample up with set-up-only repetitions (within a quarter of the
	// budget) before taking the median.
	for extra := time.Duration(0); len(setups) < minSetups && extra < budget/4; {
		inst := def.mk(subSeed(seed, len(setups)%def.pool))
		runtime.GC()
		t0 := time.Now()
		if err := inst.Setup(nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		extra += d
		setups = append(setups, d.Seconds())
	}
	pooled := poolOutcomes(pass)
	pooled.Violations = append(pooled.Violations, violations...)
	return endToEnd(name, seed, pooled, setups, runs, peaks), nil
}

// poolOutcomes combines one pass's sub-runs. Counts and simulated time
// add up. Latency percentiles are the means of the sub-runs' — a tail
// pooled over samples would follow the pass's single worst instance —
// except for sub-runs with histograms, whose percentiles come from the
// pooled histogram.
func poolOutcomes(outs []outcome) outcome {
	if len(outs) == 1 {
		return outs[0]
	}
	var p outcome
	var p50, p99 time.Duration
	var hist *histogram
	h := sha256.New()
	for _, o := range outs {
		p.Attempted += o.Attempted
		p.Failed += o.Failed
		p.Completed += o.Completed
		p.SimSeconds += o.SimSeconds
		p.Samples += o.Samples
		p.Violations = append(p.Violations, o.Violations...)
		hist = hist.merge(o.Hist)
		p50 += o.P50
		p99 += o.P99
		h.Write([]byte(o.Digest))
	}
	if hist != nil {
		p.P50, p.P99 = hist.quantile(0.5), hist.quantile(0.99)
	} else {
		p.P50, p.P99 = p50/time.Duration(len(outs)), p99/time.Duration(len(outs))
	}
	p.Digest = hex.EncodeToString(h.Sum(nil))
	return p
}

// newResult starts a result from an outcome. A failed correctness gate
// counts every op of the run as failed.
func newResult(o outcome) *result {
	res := &result{
		Correct:   len(o.Violations) == 0,
		Attempted: o.Attempted,
		Failed:    o.Failed,
		Metrics:   map[string]metric{},
	}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Attempted < 1 {
		res.Attempted, res.Failed = 1, 1
	}
	return res
}

// endToEnd assembles the end-to-end result and reports the run on stderr.
func endToEnd(name string, seed int64, o outcome, setups, runs, peaks []float64) *result {
	res := newResult(o)
	res.Metrics = map[string]metric{
		"setup_s":       {median(setups), "s"},
		"run_s":         {median(runs), "s"},
		"peak_heap_mb":  {median(peaks), "MB"},
		"sim_ops_per_s": {float64(o.Completed) / o.SimSeconds, "1/sim_s"},
		"sim_p50_ms":    {ms(o.P50), "sim_ms"},
		"sim_p99_ms":    {ms(o.P99), "sim_ms"},
		"sim_samples":   {float64(o.Samples), "count"},
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: %d repetitions, digest %s, %d/%d ops failed, fail_ratio %.6g\n",
		name, seed, len(runs), o.Digest, res.Failed, res.Attempted, float64(res.Failed)/float64(res.Attempted))
	fmt.Fprintf(os.Stderr, "  setup_s %s\n  run_s %s\n  peak_heap_mb %s\n",
		fmtSamples(setups), fmtSamples(runs), fmtSamples(peaks))
	for _, v := range o.Violations {
		fmt.Fprintf(os.Stderr, "  check failed: %s\n", v)
	}
	return res
}

// fmtSamples renders per-repetition measurements for the stderr report.
func fmtSamples(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return strings.Join(parts, " ")
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the median of xs (mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of sorted samples.
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// heapSampler polls the live Go heap from a background goroutine and keeps
// its maximum.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

// heapObjects is the runtime metric for bytes in live and not-yet-swept
// heap objects — the heap in use.
const heapObjects = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: heapObjects}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// stop ends sampling, takes one last reading, and returns the peak bytes.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	s := []metrics.Sample{{Name: heapObjects}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
	return h.peak
}
