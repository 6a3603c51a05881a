package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"runtime/pprof"
	"slices"
	"testing"
	"time"

	"ustore/internal/chaos"
)

// runOnce executes one setup + run + finish of inst.
func runOnce(t *testing.T, inst instance) outcome {
	t.Helper()
	if err := inst.Setup(nil); err != nil {
		t.Fatalf("setup: %v", err)
	}
	if err := inst.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return inst.Finish()
}

// TestStormWorkloadMatchesChaosRun: at chaos.Run's default timeline the
// benchmark's storm workload produces a byte-identical SLO table.
func TestStormWorkloadMatchesChaosRun(t *testing.T) {
	if testing.Short() {
		t.Skip("two full restore storms")
	}
	const seed = 1
	s := newStorm(stormDefaults(seed))
	out := runOnce(t, s)
	if len(out.Violations) > 0 {
		t.Fatalf("storm workload gates failed: %v", out.Violations)
	}
	rep, err := chaos.Run(chaos.Options{Seed: seed, Tenants: true, Storm: true, Protect: true})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s.slo.Text(), rep.SLO.Text(); got != want {
		t.Fatalf("SLO table differs from chaos.Run's\n--- benchmark\n%s--- chaos.Run\n%s", got, want)
	}
}

// TestFleetAllocOnlyMatchesMeasureFleetAlloc: in Allocate-only mode the
// fleet workload reproduces chaos.MeasureFleetAlloc's simulated rate.
func TestFleetAllocOnlyMatchesMeasureFleetAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("two 64-unit fleet benches")
	}
	const seed = 9
	o := mixOptions{Workers: 2, AllocPct: 100, Warmup: 3 * time.Second, Window: 6 * time.Second}
	m := newFleetMix(seed, o)
	out := runOnce(t, m)
	if len(out.Violations) > 0 {
		t.Fatalf("fleet workload gates failed: %v", out.Violations)
	}
	want, err := chaos.MeasureFleetAlloc(chaos.FleetOptions{
		Seed: seed, Units: mixUnits, Shards: mixShards, Clients: mixRouters, VolumeSize: mixVolumeSize, EngineWorkers: 2,
	}, o.Warmup, o.Window)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.AllocRate(); got != want {
		t.Fatalf("Allocate-only rate %v allocs/s, MeasureFleetAlloc %v", got, want)
	}
	if got := m.AllocRate(); math.Abs(got-2662.67) > 0.01 {
		t.Fatalf("Allocate-only rate %v allocs/s, want the recorded 2662.67", got)
	}
}

// TestFleetMixLayerShapeAcrossAllocShares: fleet-mixed's 60/25/15
// Allocate/Lookup/Release split is an assumption (no public source gives a
// cold-storage metadata op mix), so the per-layer conclusions drawn from it
// must hold for any Allocate share from 50% to 80%, Lookup and Release
// keeping their 5:3 ratio: cpu_s.placement stays the largest module bucket
// besides runtime, and a Lookup, served from the shard leader's soft state,
// stays faster at the median than an Allocate, which commits through Paxos.
func TestFleetMixLayerShapeAcrossAllocShares(t *testing.T) {
	if testing.Short() {
		t.Skip("four traced fleet runs")
	}
	for _, pct := range []int{50, 60, 70, 80} {
		o := fleetMixOptions()
		o.AllocPct, o.LookupPct = pct, (100-pct)*5/8
		res, err := tracedRun("fleet-mixed", func(seed int64) instance { return newFleetMix(seed, o) }, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("alloc %d%%: gates failed", pct)
		}
		v := func(name string) float64 { return res.Metrics[name].Value }
		largest := ""
		for _, m := range moduleBuckets {
			if m != "runtime" && (largest == "" || v("cpu_s."+m) > v("cpu_s."+largest)) {
				largest = m
			}
		}
		t.Logf("alloc %d%% lookup %d%%: cpu_s.placement %.2f s of runtime.cpu_s %.2f s (largest non-runtime bucket %s), "+
			"alloc p50/p99 %.1f/%.1f ms, lookup p50/p99 %.1f/%.1f ms, paxos.applied per op %.2f, sim ops/s %.0f",
			pct, o.LookupPct, v("cpu_s.placement"), v("runtime.cpu_s"), largest,
			v("fleet.alloc_p50_ms"), v("fleet.alloc_p99_ms"), v("fleet.lookup_p50_ms"), v("fleet.lookup_p99_ms"),
			v("paxos.applied")/v("fleet.ops"), v("fleet.ops")/o.Window.Seconds())
		if largest != "placement" {
			t.Errorf("alloc %d%%: largest non-runtime CPU bucket is %s, not placement", pct, largest)
		}
		if v("fleet.lookup_p50_ms") >= v("fleet.alloc_p50_ms") {
			t.Errorf("alloc %d%%: lookup p50 %.2f ms not below alloc p50 %.2f ms",
				pct, v("fleet.lookup_p50_ms"), v("fleet.alloc_p50_ms"))
		}
	}
}

// TestDigestSameSeed: every workload reproduces its digest for one seed.
func TestDigestSameSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("two runs of every workload")
	}
	for name, def := range workloads {
		a, b := runOnce(t, def.mk(3)), runOnce(t, def.mk(3))
		if len(a.Violations) > 0 {
			t.Errorf("%s: gates failed: %v", name, a.Violations)
		}
		if a.Digest != b.Digest {
			t.Errorf("%s: same seed, digests %s and %s", name, a.Digest, b.Digest)
		}
	}
}

// TestDigestFleetWorkerCount: fleet-mixed is byte-identical at 1 and 2
// engine workers.
func TestDigestFleetWorkerCount(t *testing.T) {
	o1, o2 := fleetMixOptions(), fleetMixOptions()
	o1.Workers, o2.Workers = 1, 2
	a, b := runOnce(t, newFleetMix(5, o1)), runOnce(t, newFleetMix(5, o2))
	if a.Digest != b.Digest {
		t.Fatalf("1 worker digest %s, 2 workers %s\n--- 1\n%s\n--- 2\n%s", a.Digest, b.Digest, a.Text, b.Text)
	}
}

// TestDigestDifferentSeed: a different seed changes the simulated outputs.
func TestDigestDifferentSeed(t *testing.T) {
	for _, name := range []string{"fleet-mixed", "restore-storm"} {
		if testing.Short() && name != "fleet-mixed" {
			continue
		}
		a, b := runOnce(t, workloads[name].mk(1)), runOnce(t, workloads[name].mk(2))
		if a.Digest == b.Digest {
			t.Errorf("%s: seeds 1 and 2 share digest %s", name, a.Digest)
		}
	}
}

// TestFleetLedgerGateCatchesLostVolume: the client-ledger gate flags an
// acknowledged volume no shard holds.
func TestFleetLedgerGateCatchesLostVolume(t *testing.T) {
	m := newFleetMix(1, fleetMixOptions())
	if err := m.Setup(nil); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.ledger.Alloc("never-allocated")
	out := m.Finish()
	if len(out.Violations) != 1 {
		t.Fatalf("want exactly the lost-volume violation, got %v", out.Violations)
	}
}

// TestFailedGateFailsEveryOp: a failed correctness gate counts all of the
// run's ops as failed and marks the result incorrect.
func TestFailedGateFailsEveryOp(t *testing.T) {
	o := outcome{Attempted: 10, Failed: 2, Completed: 8, SimSeconds: 1, Violations: []string{"x"}}
	res := endToEnd("fleet-mixed", 1, o, []float64{1}, []float64{1}, []float64{1})
	if res.Correct || res.Failed != 10 || res.Attempted != 10 {
		t.Fatalf("got correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
	}
}

func TestModuleOf(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "ustore/internal/disk.(*Store).ReadAt", "ustore/internal/disk.(*Disk).pump.func1"}, "disk"},
		{[]string{"ustore/internal/block.(*Msg).Encode", "ustore/internal/core.(*EndPoint).serve"}, "block"},
		{[]string{"runtime.gcBgMarkWorker"}, "runtime"},
		{[]string{"main.run", "ustore/internal/faults.New"}, "other"},
		{[]string{"ustore/internal/simtime.(*Engine).window.func1"}, "simtime"},
	} {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// TestHistogramTrimTop: trimming drops the largest samples first and the
// quantiles then cover only what is left.
func TestHistogramTrimTop(t *testing.T) {
	h := &histogram{bounds: []float64{0.001, 0.01, 1, math.Inf(1)}, cum: []uint64{50, 98, 99, 100}}
	tr := h.trimTop(2)
	if want := []uint64{50, 98, 98, 98}; !slices.Equal(tr.cum, want) {
		t.Fatalf("trimTop(2) = %v, want %v", tr.cum, want)
	}
	if q := tr.quantile(0.99); q > 10*time.Millisecond {
		t.Fatalf("p99 after trimming the two slowest samples is %v, want within the 10 ms bucket", q)
	}
	if tr := h.trimTop(500); tr.cum[len(tr.cum)-1] != 0 {
		t.Fatalf("trimming more than every sample left %v", tr.cum)
	}
}

// TestParseProfile decodes a real heap profile and finds its sample types.
func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.byModule("alloc_space"); err != nil {
		t.Fatal(err)
	}
}

// TestSoakScheduleShape: every fault kind appears, windows never overlap,
// and the schedule is a pure function of the seed.
func TestSoakScheduleShape(t *testing.T) {
	tg, err := newSoakTargets()
	if err != nil {
		t.Fatal(err)
	}
	o := soakOptions(4, soakDuration)
	a, b := soakSchedule(4, tg, o), soakSchedule(4, tg, o)
	if len(a) != len(b) {
		t.Fatalf("same seed, schedules of %d and %d faults", len(a), len(b))
	}
	kinds := map[chaos.FaultKind]int{}
	open := 0
	for i, f := range a {
		if f != b[i] {
			t.Fatalf("same seed, fault %d differs: %v vs %v", i, f, b[i])
		}
		if f.At < 0 || f.At >= o.Duration {
			t.Errorf("fault %v outside the fault phase", f)
		}
		kinds[f.Kind]++
		switch f.Kind {
		case chaos.FaultHostCrash, chaos.FaultDiskFail, chaos.FaultHubFail, chaos.FaultLinkCut,
			chaos.FaultLinkLoss, chaos.FaultLinkDup, chaos.FaultIsolate, chaos.FaultDiskDegrade,
			chaos.FaultLinkDowngrade, chaos.FaultBrownout:
			open++
			if open > 1 {
				t.Errorf("fault %v opens while another window is open", f)
			}
		case chaos.FaultHostRestore, chaos.FaultDiskReplace, chaos.FaultHubReplace, chaos.FaultLinkHeal,
			chaos.FaultLinkLossEnd, chaos.FaultLinkDupEnd, chaos.FaultRejoin, chaos.FaultDiskRecover,
			chaos.FaultLinkRestore, chaos.FaultBrownoutEnd:
			open--
		}
	}
	for k := chaos.FaultHostCrash; k <= chaos.FaultBrownoutEnd; k++ {
		if kinds[k] == 0 {
			t.Errorf("schedule has no %s", k)
		}
	}
	if c := soakSchedule(5, tg, o); len(c) == len(a) && c[0] == a[0] {
		t.Errorf("seeds 4 and 5 open with the same fault %v", a[0])
	}
}

// TestBenchmarkJSONMatchesOutput: BENCHMARK.json names exactly the
// metrics (and units) the two run modes print.
func TestBenchmarkJSONMatchesOutput(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	e2e := endToEnd("fleet-mixed", 1, outcome{Attempted: 1, SimSeconds: 1}, []float64{1}, []float64{1}, []float64{1}).Metrics
	check := func(kind string, listed []struct{ Name, Unit string }, printed map[string]string) {
		if len(listed) != len(printed) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the run prints %d", kind, len(listed), len(printed))
		}
		for _, m := range listed {
			if u, ok := printed[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s: BENCHMARK.json has %s in %q, the run prints unit %q (present %v)", kind, m.Name, m.Unit, u, ok)
			}
		}
	}
	units := map[string]string{}
	for n, m := range e2e {
		units[n] = m.Unit
	}
	check("end_to_end", spec.EndToEnd, units)
	check("per_layer", spec.PerLayer, layerUnits())
}
