package main

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"ustore/internal/core"
	"ustore/internal/disk"
	"ustore/internal/fabric"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/paxos"
	"ustore/internal/simtime"
	"ustore/internal/workload"
)

// restore-storm: the protected multi-tenant restore storm. The benchmark
// builds the same 3-host, 6-disk unit chaos.Run's traffic mode builds, so
// at the default timeline its SLO table is byte-identical to
// chaos.Run{Tenants, Storm, Protect} (bench_test.go checks it). The
// benchmark shortens the quiet phases around the storm so the first ingest
// campaign (at 2m) lands inside it; the storm phase keeps its default
// length so the premium p99 has enough samples beyond it.

// stormOptions is the benchmark's traffic configuration for a seed.
func stormOptions(seed int64) workload.TrafficOptions {
	o := stormDefaults(seed)
	o.Warmup = time.Minute
	o.Quiescent = time.Minute
	o.Drain = time.Minute
	return o
}

// stormDefaults is chaos.Run's protected-storm traffic configuration.
func stormDefaults(seed int64) workload.TrafficOptions {
	o := workload.DefaultTrafficOptions(seed)
	o.StormEnabled = true
	o.Protect = true
	return o
}

// stormConfig mirrors chaos.Run's traffic-mode cluster: stretched control
// loop timers, no scrubber or power manager (the engine and protector own
// disk power), and checksums off so reads of never-written volumes need no
// initial write pass.
func stormConfig(topts workload.TrafficOptions, rec *obs.Recorder, hist *model.History) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = topts.Seed
	cfg.Fabric = fabric.Config{Hosts: []string{"h1", "h2", "h3"}, Disks: 6, FanIn: 4}
	cfg.HeartbeatInterval = 30 * time.Second
	cfg.HostDeadAfter = 3
	cfg.ElectionTTL = 30 * time.Minute
	cfg.Paxos = paxos.Config{
		HeartbeatInterval:   time.Minute,
		ElectionTimeoutBase: 4 * time.Minute,
		PhaseTimeout:        2 * time.Minute,
	}
	cfg.CoordSweepInterval = 2 * time.Minute
	cfg.ScrubInterval = 0
	cfg.SpinDownIdle = 0
	cfg.DisableChecksums = true
	cfg.RPCTimeout = 2 * time.Second
	cfg.Recorder = rec
	cfg.History = hist
	if topts.Protect {
		cfg.Protection = topts.ProtectionConfig()
	}
	return cfg
}

type stormInstance struct {
	topts workload.TrafficOptions
	hist  *model.History
	c     *core.Cluster
	eng   *workload.TrafficEngine
	log   []string
	slo   *workload.SLOReport

	runStart, runEnd simtime.Time
	// Counters at the end of Setup, so Layers reports the timed phase.
	before      diskTotals
	firedBefore uint64
	pxBefore    [2]float64
}

func newStormInstance(seed int64) instance { return newStorm(stormOptions(seed)) }

func newStorm(topts workload.TrafficOptions) *stormInstance {
	return &stormInstance{topts: topts, hist: model.NewHistory()}
}

// logf stamps a log line the way chaos.Run's traffic mode does.
func (s *stormInstance) logf(format string, a ...any) {
	now := s.c.Sched.Now()
	day := now / (24 * time.Hour)
	rem := now % (24 * time.Hour)
	stamp := fmt.Sprintf("[d%03d %02d:%02d:%02d]", day,
		rem/time.Hour, (rem%time.Hour)/time.Minute, (rem%time.Minute)/time.Second)
	s.log = append(s.log, stamp+" "+fmt.Sprintf(format, a...))
}

// Setup boots the cluster, settles the master election, and places the
// tenant volume population (warm and archived, the archive spun down).
func (s *stormInstance) Setup(rec *obs.Recorder) error {
	c, err := core.NewCluster(stormConfig(s.topts, rec, s.hist))
	if err != nil {
		return err
	}
	s.c = c
	c.Settle(30 * time.Minute)
	if c.ActiveMaster() == nil {
		return errors.New("no active master after boot settle")
	}
	s.eng = workload.NewTrafficEngine(c, s.topts, s.logf)
	if err := s.eng.Setup(); err != nil {
		return err
	}
	s.before = sumDisks(c)
	s.firedBefore = c.Sched.Stats().Fired
	s.pxBefore = s.paxos()
	return nil
}

// paxos sums applied commands and elections over the unit's replicas.
func (s *stormInstance) paxos() [2]float64 {
	var out [2]float64
	for _, st := range s.c.Stores {
		out[0] += float64(st.Paxos().Applied())
		out[1] += float64(st.Paxos().Elections())
	}
	return out
}

// Run executes the traffic timeline: warmup, quiescent, storm, drain.
func (s *stormInstance) Run() error {
	s.runStart = s.c.Sched.Now()
	s.slo = s.eng.Run()
	s.runEnd = s.c.Sched.Now()
	return nil
}

// Finish gates the run — the master's allocation records never
// double-assign an extent, and every SLO row accounts for each request
// exactly once — and summarizes it. Latency covers the premium class in
// the storm phase.
func (s *stormInstance) Finish() outcome {
	var o outcome
	if m := s.c.ActiveMaster(); m == nil {
		o.Violations = append(o.Violations, "no active master at end of run")
	} else if err := m.ValidateAllocations(); err != nil {
		o.Violations = append(o.Violations, "allocation invariant: "+err.Error())
	}
	for _, r := range s.slo.Rows {
		if r.OK+r.Errors+r.Shed+r.Throttled != r.Total {
			o.Violations = append(o.Violations, fmt.Sprintf(
				"SLO row %s/%s: ok %d + err %d + shed %d + throttled %d != total %d",
				r.Class, r.Phase, r.OK, r.Errors, r.Shed, r.Throttled, r.Total))
		}
		o.Attempted += r.Total
		o.Failed += r.Errors + r.Shed + r.Throttled
		o.Completed += r.OK
	}
	o.SimSeconds = time.Duration(s.runEnd - s.runStart).Seconds()
	prem := s.slo.Row(workload.ClassPremium, workload.PhaseStorm)
	o.P50, o.P99, o.Samples = prem.P50, prem.P99, prem.OK+prem.Errors
	o.Text = s.slo.Text() + strings.Join(s.log, "\n") + "\n" + strings.Join(o.Violations, "\n")
	o.seal()
	return o
}

// Layers reports the storm's disk, consensus, scheduler and per-class
// counters over the timed phase (simtime.max_pending is a high-water mark
// since boot).
func (s *stormInstance) Layers(l layers) {
	after := sumDisks(s.c)
	l.set("disk.ios", float64(after.ios-s.before.ios))
	l.set("disk.read_mb", float64(after.read-s.before.read)/(1<<20))
	l.set("disk.write_mb", float64(after.wrote-s.before.wrote)/(1<<20))
	l.set("disk.stored_mb", float64(after.stored)/(1<<20))
	l.set("disk.busy_s", (after.busy - s.before.busy).Seconds())
	l.set("disk.spinups", float64(after.spinups-s.before.spinups))
	l.set("disk.hole_read_share", s.holeReadShare())
	px := s.paxos()
	l.set("paxos.applied", px[0]-s.pxBefore[0])
	l.set("paxos.elections", px[1]-s.pxBefore[1])
	st := s.c.Sched.Stats()
	l.set("simtime.events", float64(st.Fired-s.firedBefore))
	l.set("simtime.max_pending", float64(st.MaxPending))
	for class, name := range map[string]string{
		workload.ClassPremium:  "workload.premium_p99_ms",
		workload.ClassStandard: "workload.standard_p99_ms",
		workload.ClassIngest:   "workload.ingest_p99_ms",
		workload.ClassBatch:    "workload.batch_p99_ms",
	} {
		l.set(name, ms(s.slo.Row(class, workload.PhaseStorm).P99))
	}
}

// holeReadShare measures the input property the disk store's hole path
// depends on: the share of bytes in volumes the tenants read (every volume
// the engine placed at setup, named by its allocator clients talloc*) that
// were never written by the end of the run. Every foreground read targets
// one of these volumes, so this is the share of foreground reads that hit
// never-written ranges.
func (s *stormInstance) holeReadShare() float64 {
	var total, written int64
	for _, op := range s.hist.Ops() {
		if op.Kind != model.OpAllocate || !op.Done || !strings.HasPrefix(op.Client, "talloc") {
			continue
		}
		d := s.c.Disks[op.Disk]
		if d == nil {
			continue
		}
		total += op.Size
		for _, off := range d.Store().AllocatedChunkOffsets() {
			if off+chunkSize > op.Offset && off < op.Offset+op.Size {
				written += chunkSize
			}
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(written)/float64(total)
}

// chunkSize is the disk store's allocation granularity.
const chunkSize = disk.ChunkSize

// diskTotals sums the cluster's per-disk activity counters.
type diskTotals struct {
	ios, read, wrote uint64
	stored           int64
	busy             time.Duration
	spinups          int
}

func sumDisks(c *core.Cluster) diskTotals {
	var t diskTotals
	for _, d := range c.Disks {
		t.ios += d.Completed()
		t.read += d.BytesRead()
		t.wrote += d.BytesWritten()
		t.stored += d.Store().BytesAllocated()
		t.busy += d.BusyTime()
		t.spinups += d.SpinUpCount()
	}
	return t
}
