package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"ustore/internal/obs"
)

// reportedModules are the ustore/internal packages per-module CPU and
// allocation buckets are printed for; samples in any other internal
// package land in "other", samples with no internal frame in "runtime".
var reportedModules = map[string]bool{
	"simtime": true, "simnet": true, "paxos": true, "coord": true,
	"block": true, "disk": true, "usb": true, "placement": true,
	"policy": true, "core": true, "fleet": true, "workload": true,
	"chaos": true, "model": true, "obs": true,
}

// moduleBuckets lists every per-module bucket in print order.
var moduleBuckets = []string{
	"simtime", "simnet", "paxos", "coord", "block", "disk", "usb", "placement",
	"policy", "core", "fleet", "workload", "chaos", "model", "obs", "other", "runtime",
}

// layerUnits names every per-layer metric a traced run prints, with its
// unit. A workload that bypasses a layer reports 0 for it.
func layerUnits() map[string]string {
	u := map[string]string{
		"disk.ios": "count", "disk.read_mb": "MB", "disk.write_mb": "MB",
		"disk.stored_mb": "MB", "disk.busy_s": "sim_s", "disk.spinups": "count",
		"disk.readat_hole_ns": "ns", "disk.readat_written_ns": "ns",
		"disk.hole_read_share": "ratio",

		"block.encode_ns": "ns", "block.encode_bytes": "B", "block.decode_ns": "ns",
		"block.tcp_read_mb_s": "MB/s",

		"placement.spread_ns": "ns", "placement.spread_allocs": "count",

		"simtime.events": "count", "simtime.events_per_host_s": "1/s",
		"simtime.max_pending": "count", "simtime.part_imbalance": "ratio",
		"simtime.barrier_wait_s": "s",

		"simnet.msgs": "count", "simnet.bytes_mb": "MB", "simnet.dropped": "count",
		"simnet.rpc_timeouts": "count", "simnet.rpc_retries": "count",

		"paxos.applied": "count", "paxos.elections": "count",

		"policy.admitted": "count", "policy.shed": "count", "policy.throttled": "count",
		"policy.submit_ns": "ns",

		"core.failovers": "count", "core.remounts": "count", "core.hedges": "count",
		"core.hedge_wins": "count", "core.quarantines": "count",

		"fleet.ops": "count", "fleet.alloc_p50_ms": "sim_ms", "fleet.alloc_p99_ms": "sim_ms",
		"fleet.lookup_p50_ms": "sim_ms", "fleet.lookup_p99_ms": "sim_ms",
		"fleet.release_p99_ms": "sim_ms", "fleet.router_retries": "count",
		"fleet.stale_retries": "count", "fleet.leader_rotations": "count",

		"workload.premium_p99_ms": "sim_ms", "workload.standard_p99_ms": "sim_ms",
		"workload.ingest_p99_ms": "sim_ms", "workload.batch_p99_ms": "sim_ms",

		"model.ops_checked": "count",
		"usb.enumerations":  "count",

		"runtime.cpu_s": "s", "runtime.alloc_mb": "MB", "runtime.gc_cpu_frac": "ratio",
		"runtime.gc_cycles": "count", "trace_overhead": "ratio",
	}
	for _, m := range moduleBuckets {
		u["cpu_s."+m] = "s"
		u["alloc_mb."+m] = "MB"
	}
	return u
}

// layers collects per-layer values; every name starts at 0.
type layers map[string]float64

func (l layers) set(name string, v float64) {
	if _, ok := l[name]; !ok {
		panic("ustorebench: unknown per-layer metric " + name)
	}
	l[name] = v
}

// tracedRun brackets one traced repetition (an obs.Recorder attached, CPU,
// heap and block profiles around its timed phase) between two untraced
// ones, whose mean is the trace-overhead baseline (bracketing cancels the
// first repetition's cold start), then runs the workload's microprobes and
// prints every per-layer metric.
func tracedRun(name string, mk func(int64) instance, seed int64) (*result, error) {
	untracedRun := func() (float64, outcome, error) {
		inst := mk(seed)
		runtime.GC()
		if err := inst.Setup(nil); err != nil {
			return 0, outcome{}, fmt.Errorf("setup: %w", err)
		}
		t0 := time.Now()
		if err := inst.Run(); err != nil {
			return 0, outcome{}, fmt.Errorf("run: %w", err)
		}
		return time.Since(t0).Seconds(), inst.Finish(), nil
	}
	before, want, err := untracedRun()
	if err != nil {
		return nil, err
	}

	l := layers{}
	for n := range layerUnits() {
		l[n] = 0
	}
	inst := mk(seed)
	rec := obs.NewRecorder()
	runtime.GC()
	if err := inst.Setup(rec); err != nil {
		return nil, fmt.Errorf("traced setup: %w", err)
	}
	snap0 := rec.Registry().Snapshot()
	host0 := readHost()
	allocs0, err := allocProfile()
	if err != nil {
		return nil, err
	}
	runtime.SetBlockProfileRate(1000)
	var cpu bytes.Buffer
	if err := pprof.StartCPUProfile(&cpu); err != nil {
		return nil, err
	}
	t1 := time.Now()
	runErr := inst.Run()
	traced := time.Since(t1).Seconds()
	pprof.StopCPUProfile()
	runtime.SetBlockProfileRate(0)
	host1 := readHost()
	if runErr != nil {
		return nil, fmt.Errorf("traced run: %w", runErr)
	}
	allocs1, err := allocProfile()
	if err != nil {
		return nil, err
	}
	out := inst.Finish()
	if out.Digest != want.Digest {
		out.Violations = append(out.Violations, fmt.Sprintf(
			"determinism: traced digest %s differs from untraced %s", out.Digest, want.Digest))
	}
	after, _, err := untracedRun()
	if err != nil {
		return nil, err
	}
	untraced := (before + after) / 2

	if err := chargeProfiles(l, cpu.Bytes(), allocs0, allocs1); err != nil {
		return nil, err
	}
	recorderLayers(l, snap0, rec.Registry().Snapshot())
	inst.Layers(l)
	l.set("runtime.cpu_s", host1.cpu-host0.cpu)
	l.set("runtime.alloc_mb", float64(host1.alloc-host0.alloc)/(1<<20))
	l.set("runtime.gc_cycles", float64(host1.gcCycles-host0.gcCycles))
	if busy := (host1.cpuTotal - host1.cpuIdle) - (host0.cpuTotal - host0.cpuIdle); busy > 0 {
		l.set("runtime.gc_cpu_frac", (host1.cpuGC-host0.cpuGC)/busy)
	}
	l.set("trace_overhead", traced/untraced)
	l.set("simtime.events_per_host_s", l["simtime.events"]/untraced)
	if err := runProbes(name, l); err != nil {
		return nil, err
	}

	res := newResult(out)
	units := layerUnits()
	for n, v := range l {
		res.Metrics[n] = metric{v, units[n]}
	}
	fmt.Fprintf(os.Stderr, "%s seed %d traced: digest %s, run %.3fs untraced / %.3fs traced\n",
		name, seed, out.Digest, untraced, traced)
	for _, v := range out.Violations {
		fmt.Fprintf(os.Stderr, "  check failed: %s\n", v)
	}
	return res, nil
}

// allocProfile decodes the heap profile's cumulative allocations after a
// GC (the profile reflects allocations as of the last completed cycle).
func allocProfile() (*profileData, error) {
	runtime.GC()
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, err
	}
	return parseProfile(buf.Bytes())
}

// chargeProfiles fills the per-module CPU and allocation buckets and the
// engine barrier wait from the traced run's profiles.
func chargeProfiles(l layers, cpuRaw []byte, allocs0, allocs1 *profileData) error {
	cpu, err := parseProfile(cpuRaw)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	cpuNs, err := cpu.byModule("cpu")
	if err != nil {
		return err
	}
	a0, err := allocs0.byModule("alloc_space")
	if err != nil {
		return err
	}
	a1, err := allocs1.byModule("alloc_space")
	if err != nil {
		return err
	}
	for _, m := range moduleBuckets {
		l.set("cpu_s."+m, float64(cpuNs[m])/1e9)
		l.set("alloc_mb."+m, float64(a1[m]-a0[m])/(1<<20))
	}
	var blk bytes.Buffer
	if err := pprof.Lookup("block").WriteTo(&blk, 0); err != nil {
		return err
	}
	bp, err := parseProfile(blk.Bytes())
	if err != nil {
		return fmt.Errorf("block profile: %w", err)
	}
	wait, err := bp.sumWhere("delay", func(fn string) bool {
		return strings.HasPrefix(fn, "ustore/internal/simtime.(*Engine)")
	})
	if err != nil {
		return err
	}
	l.set("simtime.barrier_wait_s", float64(wait)/1e9)
	return nil
}

// sumSeries adds field over every series of snapshot s named
// component_name (all label sets).
func sumSeries(s obs.Snapshot, component, name string, field func(obs.SeriesSnapshot) float64) float64 {
	var t float64
	for _, m := range s.Metrics {
		if m.Name == component+"_"+name {
			t += field(m)
		}
	}
	return t
}

// Series fields for sumSeries.
func value(m obs.SeriesSnapshot) float64 { return m.Value }
func count(m obs.SeriesSnapshot) float64 { return float64(m.Count) }
func total(m obs.SeriesSnapshot) float64 { return m.Sum }

// recorderLayers reads the counters the run's obs.Recorder collected
// during the traced timed phase (after minus before). Instance Layers
// overwrite any of these it can measure more directly.
func recorderLayers(l layers, before, after obs.Snapshot) {
	delta := func(component, name string, field func(obs.SeriesSnapshot) float64) float64 {
		return sumSeries(after, component, name, field) - sumSeries(before, component, name, field)
	}
	l.set("disk.ios", delta("disk", "io_seconds", count))
	l.set("disk.busy_s", delta("disk", "io_seconds", total))
	l.set("disk.spinups", delta("disk", "spinups_total", value))
	l.set("simnet.msgs", delta("simnet", "msgs_sent_total", value))
	l.set("simnet.bytes_mb", delta("simnet", "bytes_total", value)/(1<<20))
	l.set("simnet.dropped", delta("simnet", "msgs_dropped_total", value))
	l.set("simnet.rpc_timeouts", delta("simnet", "rpc_timeouts_total", value))
	l.set("simnet.rpc_retries", delta("simnet", "rpc_retry_attempts_total", value))
	l.set("policy.admitted", delta("policy", "admitted_total", value))
	l.set("policy.shed", delta("policy", "shed_total", value))
	l.set("policy.throttled", delta("policy", "throttled_total", value))
	l.set("core.failovers", delta("core", "failovers_total", value))
	l.set("core.hedges", delta("core", "hedge_reads_total", value))
	l.set("core.hedge_wins", delta("core", "hedge_wins_total", value))
	l.set("core.quarantines", delta("core", "health_quarantines_total", value))
	l.set("usb.enumerations", delta("usb", "enumerations_total", value))
	l.set("fleet.router_retries", delta("fleet", "router_retries_total", value))
	l.set("fleet.stale_retries", delta("fleet", "router_stale_retries_total", value))
	l.set("fleet.leader_rotations", delta("fleet", "router_leader_rotations_total", value))
}

// hostSample is a point reading of process-level counters.
type hostSample struct {
	cpu                      float64 // user+sys seconds
	alloc                    uint64  // cumulative heap bytes allocated
	gcCycles                 uint64
	cpuGC, cpuTotal, cpuIdle float64 // runtime CPU-class estimates, seconds
}

func readHost() hostSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return hostSample{
		cpu:      tv(ru.Utime) + tv(ru.Stime),
		alloc:    s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		cpuGC:    s[2].Value.Float64(),
		cpuTotal: s[3].Value.Float64(),
		cpuIdle:  s[4].Value.Float64(),
	}
}
