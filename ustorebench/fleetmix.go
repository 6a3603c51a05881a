package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"ustore/internal/fleet"
	"ustore/internal/model"
	"ustore/internal/obs"
	"ustore/internal/simtime"
)

// fleet-mixed: a sharded fleet on the parallel engine driven by closed-loop
// routers. Each router waits for its previous op, then draws the next from
// its own seeded stream: Allocate a fresh volume, Lookup a volume it holds,
// or Release one. Allocate-only mode with no initial population is exactly
// chaos.MeasureFleetAlloc's load (same router and volume names, same
// issue order), which bench_test.go checks.

// The fleet: 64 units of 64 disks (4096 disks) in 8 metadata shards,
// driven by 64 routers allocating 8 MiB volumes — chaos.MeasureFleetAlloc's
// 64-unit, 8-shard bench shape.
const (
	mixUnits      = 64
	mixShards     = 8
	mixRouters    = 64
	mixVolumeSize = 8 << 20
)

// mixOptions shapes a fleet-mixed run.
type mixOptions struct {
	// Workers is the engine's worker count.
	Workers int
	// Initial is how many volumes each router allocates during setup, so
	// Lookups and Releases have targets from the first timed op.
	Initial int
	// AllocPct and LookupPct split each router's draws; the rest are
	// Releases. A router holding nothing allocates.
	AllocPct, LookupPct int
	// Warmup runs the mix before the timed window (part of setup);
	// Window is the timed phase.
	Warmup, Window time.Duration
}

// fleetMixOptions is the benchmark's fleet workload.
func fleetMixOptions() mixOptions {
	return mixOptions{
		Workers: 2, Initial: 4,
		AllocPct: 60, LookupPct: 25,
		Warmup: time.Second, Window: 2 * time.Second,
	}
}

// Op kinds.
const (
	opAlloc = iota
	opLookup
	opRelease
	numOps
)

var opNames = [numOps]string{"alloc", "lookup", "release"}

// mixRouter is one closed-loop client.
type mixRouter struct {
	idx  int
	rt   *fleet.Router
	rng  *rand.Rand
	held []string
	n    int // next volume sequence number
}

// phase of a fleet-mixed run; ops are attributed to the phase they start in.
const (
	phaseSetup = iota
	phaseWarmup
	phaseWindow
	phaseDrain
)

type fleetInstance struct {
	seed int64
	o    mixOptions
	f    *fleet.Fleet
	rs   []*mixRouter

	ledger   *model.VolumeLedger
	phase    int
	stopped  bool
	inflight int

	// Window accounting, per op kind.
	attempted, failed [numOps]int
	lat               [numOps][]time.Duration
	completedInWindow int
	latHash           [sha256.Size]byte
	violations        []string

	firedBefore []uint64
	pxBefore    [2]float64
}

func newFleetInstance(seed int64) instance { return newFleetMix(seed, fleetMixOptions()) }

func newFleetMix(seed int64, o mixOptions) *fleetInstance {
	return &fleetInstance{seed: seed, o: o, ledger: model.NewVolumeLedger()}
}

// Setup boots the fleet, waits for every shard to elect a leader, places
// the initial volume population, and runs the warmup.
func (m *fleetInstance) Setup(rec *obs.Recorder) error {
	m.f = fleet.New(fleet.Config{
		Units: mixUnits, Shards: mixShards, Seed: m.seed,
		Recorder: rec, EngineWorkers: m.o.Workers,
	})
	// chaos.MeasureFleetAlloc's boot settle: 10s steps, 3 minutes at most.
	for t := time.Duration(0); m.f.LeaderlessShard() >= 0; t += 10 * time.Second {
		if t >= 3*time.Minute {
			return fmt.Errorf("shard %d leaderless after boot settle", m.f.LeaderlessShard())
		}
		m.f.Settle(10 * time.Second)
	}
	for i := 0; i < mixRouters; i++ {
		r := &mixRouter{
			idx: i,
			rt:  m.f.NewRouter(fmt.Sprintf("m%03d", i)),
			rng: rand.New(rand.NewSource(m.seed*1000003 + int64(i))),
		}
		m.rs = append(m.rs, r)
		if m.o.Initial == 0 {
			m.next(r)
		}
	}
	if m.o.Initial > 0 {
		for _, r := range m.rs {
			m.populate(r, m.o.Initial)
		}
		if !m.settleIdle(time.Minute) {
			return errors.New("initial population did not complete")
		}
		if len(m.violations) > 0 {
			return errors.New(m.violations[0])
		}
		m.phase = phaseWarmup
		for _, r := range m.rs {
			m.next(r)
		}
	} else {
		m.phase = phaseWarmup
	}
	m.f.Settle(m.o.Warmup)
	return nil
}

// populate allocates n volumes through r, one at a time.
func (m *fleetInstance) populate(r *mixRouter, n int) {
	if n == 0 {
		return
	}
	vol := fmt.Sprintf("m%03d-%d", r.idx, r.n)
	r.n++
	m.inflight++
	r.rt.Allocate(vol, mixVolumeSize, "bench", func(_ []string, err error) {
		m.inflight--
		if err != nil {
			m.violations = append(m.violations, fmt.Sprintf("setup allocate %s: %v", vol, err))
			return
		}
		r.held = append(r.held, vol)
		m.ledger.Alloc(vol)
		m.populate(r, n-1)
	})
}

// settleIdle advances the fleet until no benchmark op is in flight.
func (m *fleetInstance) settleIdle(budget time.Duration) bool {
	for t := time.Duration(0); m.inflight > 0; t += 100 * time.Millisecond {
		if t >= budget {
			return false
		}
		m.f.Settle(100 * time.Millisecond)
	}
	return true
}

// next issues router r's next op; its completion issues the one after.
func (m *fleetInstance) next(r *mixRouter) {
	if m.stopped {
		return
	}
	kind := opAlloc
	if u := r.rng.Intn(100); u >= m.o.AllocPct && len(r.held) > 0 {
		kind = opLookup
		if u >= m.o.AllocPct+m.o.LookupPct {
			kind = opRelease
		}
	}
	phase := m.phase
	start := m.f.Sched.Now()
	m.inflight++
	finish := func(err error) {
		m.inflight--
		m.record(kind, phase, start, err)
		m.next(r)
	}
	switch kind {
	case opAlloc:
		vol := fmt.Sprintf("m%03d-%d", r.idx, r.n)
		r.n++
		r.rt.Allocate(vol, mixVolumeSize, "bench", func(disks []string, err error) {
			if err == nil {
				r.held = append(r.held, vol)
				m.ledger.Alloc(vol)
			}
			finish(err)
		})
	case opLookup:
		vol := r.held[r.rng.Intn(len(r.held))]
		r.rt.Lookup(vol, func(disks []string, _ int64, err error) {
			if err != nil {
				m.violations = append(m.violations, fmt.Sprintf("lookup of held volume %s: %v", vol, err))
			}
			finish(err)
		})
	case opRelease:
		i := r.rng.Intn(len(r.held))
		vol := r.held[i]
		r.held[i] = r.held[len(r.held)-1]
		r.held = r.held[:len(r.held)-1]
		r.rt.Release(vol, func(err error) {
			// A failed release may or may not have landed: it leaves the
			// ledger's live set either way (the ledger never flags a held
			// volume it does not list) and counts as failed.
			m.ledger.Release(vol)
			finish(err)
		})
	}
}

// record accounts one completed op.
func (m *fleetInstance) record(kind, phase int, start simtime.Time, err error) {
	if m.phase == phaseWindow && err == nil {
		m.completedInWindow++
	}
	if phase != phaseWindow {
		return
	}
	m.attempted[kind]++
	if err != nil {
		m.failed[kind]++
		return
	}
	d := time.Duration(m.f.Sched.Now() - start)
	m.lat[kind] = append(m.lat[kind], d)
	var b [9]byte
	b[0] = byte(kind)
	binary.LittleEndian.PutUint64(b[1:], uint64(d))
	h := sha256.New()
	h.Write(m.latHash[:])
	h.Write(b[:])
	copy(m.latHash[:], h.Sum(nil))
}

// Run is the timed window, then a drain of the ops still in flight.
func (m *fleetInstance) Run() error {
	m.firedBefore = m.partFired()
	m.pxBefore = m.paxos()
	m.phase = phaseWindow
	m.f.Settle(m.o.Window)
	m.phase = phaseDrain
	m.stopped = true
	if !m.settleIdle(time.Minute) {
		return fmt.Errorf("%d ops still in flight after drain", m.inflight)
	}
	return nil
}

// Finish checks the fleet's invariants and the client-observed ledger.
func (m *fleetInstance) Finish() outcome {
	m.f.FinishObs()
	var o outcome
	o.Violations = append(o.Violations, m.violations...)
	for _, check := range []struct {
		name string
		fn   func() error
	}{
		{"shard map", m.f.ValidateShardMap},
		{"capacity", m.f.ValidateCapacity},
		{"spread", m.f.ValidateSpread},
	} {
		if err := check.fn(); err != nil {
			o.Violations = append(o.Violations, check.name+": "+err.Error())
		}
	}
	holders, err := m.f.VolumeHolders()
	if err != nil {
		o.Violations = append(o.Violations, "volume holders: "+err.Error())
	} else {
		auth := m.f.AuthMap()
		for _, v := range m.ledger.Check(holders, auth.ShardOf) {
			o.Violations = append(o.Violations, "ledger: "+v)
		}
	}
	var all []time.Duration
	var text strings.Builder
	for k := 0; k < numOps; k++ {
		o.Attempted += m.attempted[k]
		o.Failed += m.failed[k]
		sorted := sortedDurations(m.lat[k])
		all = append(all, sorted...)
		fmt.Fprintf(&text, "%s attempted %d failed %d p50 %v p99 %v\n", opNames[k],
			m.attempted[k], m.failed[k], percentile(sorted, 0.5), percentile(sorted, 0.99))
	}
	all = sortedDurations(all)
	o.Completed = m.completedInWindow
	o.SimSeconds = m.o.Window.Seconds()
	o.P50, o.P99, o.Samples = percentile(all, 0.5), percentile(all, 0.99), len(all)
	fmt.Fprintf(&text, "completed %d in %v; live volumes %d; map epoch %d; events %d; latencies %x\n",
		m.completedInWindow, m.o.Window, m.ledger.Len(), m.f.AuthMap().Epoch, m.f.EventsFired(), m.latHash)
	text.WriteString(strings.Join(o.Violations, "\n"))
	o.Text = text.String()
	o.seal()
	return o
}

// AllocRate is completed Allocates per simulated second of the window —
// chaos.MeasureFleetAlloc's figure in Allocate-only mode.
func (m *fleetInstance) AllocRate() float64 {
	return float64(m.completedInWindow) / m.o.Window.Seconds()
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// partFired returns each engine partition's fired-event count.
func (m *fleetInstance) partFired() []uint64 {
	if m.f.Engine == nil {
		return []uint64{m.f.Sched.Stats().Fired}
	}
	out := make([]uint64, m.f.Engine.Parts())
	for p := range out {
		out[p] = m.f.Engine.Part(p).Stats().Fired
	}
	return out
}

// paxos sums applied commands and elections over every shard replica.
func (m *fleetInstance) paxos() [2]float64 {
	var out [2]float64
	for _, group := range m.f.Stores {
		for _, st := range group {
			out[0] += float64(st.Paxos().Applied())
			out[1] += float64(st.Paxos().Elections())
		}
	}
	return out
}

// Layers reports engine, consensus and per-op-kind router numbers.
func (m *fleetInstance) Layers(l layers) {
	after := m.partFired()
	var total, max uint64
	maxPending := 0
	for p := range after {
		d := after[p] - m.firedBefore[p]
		total += d
		if d > max {
			max = d
		}
	}
	for p := 0; m.f.Engine != nil && p < m.f.Engine.Parts(); p++ {
		if mp := m.f.Engine.Part(p).Stats().MaxPending; mp > maxPending {
			maxPending = mp
		}
	}
	l.set("simtime.events", float64(total))
	l.set("simtime.max_pending", float64(maxPending))
	if total > 0 {
		l.set("simtime.part_imbalance", float64(max)/(float64(total)/float64(len(after))))
	}
	px := m.paxos()
	l.set("paxos.applied", px[0]-m.pxBefore[0])
	l.set("paxos.elections", px[1]-m.pxBefore[1])
	ops := 0
	for k := 0; k < numOps; k++ {
		ops += m.attempted[k]
	}
	l.set("fleet.ops", float64(ops))
	alloc, lookup, release := sortedDurations(m.lat[opAlloc]), sortedDurations(m.lat[opLookup]), sortedDurations(m.lat[opRelease])
	l.set("fleet.alloc_p50_ms", ms(percentile(alloc, 0.5)))
	l.set("fleet.alloc_p99_ms", ms(percentile(alloc, 0.99)))
	l.set("fleet.lookup_p50_ms", ms(percentile(lookup, 0.5)))
	l.set("fleet.lookup_p99_ms", ms(percentile(lookup, 0.99)))
	l.set("fleet.release_p99_ms", ms(percentile(release, 0.99)))
}
