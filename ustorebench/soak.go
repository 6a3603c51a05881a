package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"time"

	"ustore/internal/chaos"
	"ustore/internal/core"
	"ustore/internal/obs"
)

// fault-soak: the chaos harness with every fault family plus gray faults
// and the detect-quarantine-hedge mitigation stack, checksums and the
// scrubber on, and the end-of-run linearizability check. The benchmark
// generates the fault schedule from its seed and runs it with
// chaos.RunSchedule: non-overlapping episodes of fixed length covering
// every fault kind (see soakEpisodes), in a seed-drawn order with mostly
// seed-drawn targets and severities. (chaos.Run's own generator overlaps
// windows of random length, which makes a day's metadata traffic, and with
// it run time and heap, vary fourfold from seed to seed.)
// chaos.RunSchedule boots its own cluster, so boot counts in run_s here;
// setup is a short fault-free warmup run.

// soakDuration is the fault phase's simulated length; soakWarmup is the
// setup warmup's.
const (
	soakDuration = 24 * time.Hour
	soakWarmup   = 2 * time.Hour
)

func soakOptions(seed int64, d time.Duration) chaos.Options {
	o := chaos.DefaultOptions(seed, d)
	o.GrayFaults = true
	o.Mitigation = true
	return o
}

// soakTargets are the names fault episodes can target: the harness's
// cluster is core.DefaultConfig's, so a cluster built from the same config
// (and never run) has the same hosts, disks, leaf hubs and master machines.
type soakTargets struct {
	hosts, disks, hubs, machines []string
}

func newSoakTargets() (soakTargets, error) {
	c, err := core.NewCluster(core.DefaultConfig())
	if err != nil {
		return soakTargets{}, err
	}
	t := soakTargets{hosts: c.Fabric.Hosts()}
	for _, d := range c.Fabric.Disks() {
		t.disks = append(t.disks, string(d))
	}
	for _, h := range c.Fabric.Hubs() {
		if strings.Contains(string(h), "leafhub") {
			t.hubs = append(t.hubs, string(h))
		}
	}
	sort.Strings(t.disks)
	sort.Strings(t.hubs)
	t.machines = append(t.machines, t.hosts...)
	for _, m := range c.Masters {
		t.machines = append(t.machines, "mach-"+m.Name())
	}
	return t, nil
}

// brownoutSeverity is every host brownout's severity, the middle of
// chaos.Run's 0.2-0.7 draw.
const brownoutSeverity = 0.45

// soakEpisode is one fault window: its length and how to draw it.
type soakEpisode struct {
	length time.Duration
	draw   func(r *rand.Rand, at, end time.Duration) []chaos.Fault
}

// soakEpisodes lists the day's episodes: one per fault kind, every family
// covered, targets and severities drawn from the seed — except that every
// leaf hub fails once and every host browns out once, at a fixed severity.
// Whether a single failed hub held both copies of a workload pair decided
// most of a day's failed probe reads and their retry traffic (9k against
// 40k metadata ops), so drawing that one target made the day's cost a coin
// toss. Likewise a brownout is the one gray fault whose slow reads the
// mitigation stack does not absorb: whether the drawn host held probed
// copies, and the drawn severity, decided whether a day had 0, 320 or 640
// probe reads at 30-260 ms, and with them where the probe-read p99 fell.
func soakEpisodes(t soakTargets, o chaos.Options) []soakEpisode {
	pick := func(r *rand.Rand, xs []string) string { return xs[r.Intn(len(xs))] }
	var masters []string
	for _, m := range t.machines {
		if strings.HasPrefix(m, "mach-") {
			masters = append(masters, m)
		}
	}
	var eps []soakEpisode
	for _, hub := range t.hubs {
		hub := hub
		eps = append(eps, soakEpisode{30 * time.Minute, func(_ *rand.Rand, at, end time.Duration) []chaos.Fault {
			return []chaos.Fault{{At: at, Kind: chaos.FaultHubFail, A: hub}, {At: end, Kind: chaos.FaultHubReplace, A: hub}}
		}})
	}
	for _, host := range t.hosts {
		host := host
		eps = append(eps, soakEpisode{time.Hour, func(_ *rand.Rand, at, end time.Duration) []chaos.Fault {
			return []chaos.Fault{{At: at, Kind: chaos.FaultBrownout, A: host, Rate: brownoutSeverity}, {At: end, Kind: chaos.FaultBrownoutEnd, A: host}}
		}})
	}
	return append(eps, []soakEpisode{
		{45 * time.Minute, func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
			h := pick(r, t.hosts)
			return []chaos.Fault{{At: at, Kind: chaos.FaultHostCrash, A: h}, {At: end, Kind: chaos.FaultHostRestore, A: h}}
		}},
		{time.Hour, func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
			d := pick(r, t.disks)
			return []chaos.Fault{{At: at, Kind: chaos.FaultDiskFail, A: d}, {At: end, Kind: chaos.FaultDiskReplace, A: d}}
		}},
		{30 * time.Minute, linkEpisode(t, chaos.FaultLinkCut, chaos.FaultLinkHeal, false)},
		{45 * time.Minute, linkEpisode(t, chaos.FaultLinkLoss, chaos.FaultLinkLossEnd, true)},
		{45 * time.Minute, linkEpisode(t, chaos.FaultLinkDup, chaos.FaultLinkDupEnd, true)},
		{45 * time.Minute, func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
			m := pick(r, masters)
			return []chaos.Fault{{At: at, Kind: chaos.FaultIsolate, A: m}, {At: end, Kind: chaos.FaultRejoin, A: m}}
		}},
		{20 * time.Minute, func(r *rand.Rand, at, _ time.Duration) []chaos.Fault {
			var out []chaos.Fault
			for i := 0; i < 2; i++ {
				out = append(out, chaos.Fault{At: at + time.Duration(i)*10*time.Minute, Kind: chaos.FaultCorrupt,
					Copy: r.Intn(2 * o.Pairs), Block: r.Intn(o.BlocksPerSpace)})
			}
			return out
		}},
		{time.Hour, func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
			c, sev := r.Intn(2*o.Pairs), 0.3+0.6*r.Float64()
			return []chaos.Fault{{At: at, Kind: chaos.FaultDiskDegrade, Copy: c, Rate: sev}, {At: end, Kind: chaos.FaultDiskRecover, Copy: c}}
		}},
		{20 * time.Minute, func(r *rand.Rand, at, _ time.Duration) []chaos.Fault {
			return []chaos.Fault{{At: at, Kind: chaos.FaultLinkFlap, A: pick(r, t.disks), Copy: 1 + r.Intn(3)}}
		}},
		{time.Hour, func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
			c, sev := r.Intn(2*o.Pairs), 0.2+0.6*r.Float64()
			return []chaos.Fault{{At: at, Kind: chaos.FaultLinkDowngrade, Copy: c, Rate: sev}, {At: end, Kind: chaos.FaultLinkRestore, Copy: c}}
		}},
	}...)
}

// linkEpisode draws a window on a random machine pair.
func linkEpisode(t soakTargets, open, close chaos.FaultKind, rated bool) func(*rand.Rand, time.Duration, time.Duration) []chaos.Fault {
	return func(r *rand.Rand, at, end time.Duration) []chaos.Fault {
		i := r.Intn(len(t.machines))
		j := r.Intn(len(t.machines) - 1)
		if j >= i {
			j++
		}
		a, b := t.machines[i], t.machines[j]
		if a > b {
			a, b = b, a
		}
		f := chaos.Fault{At: at, Kind: open, A: a, B: b}
		if rated {
			f.Rate = 0.05 + 0.35*r.Float64()
		}
		return []chaos.Fault{f, {At: end, Kind: close, A: a, B: b}}
	}
}

// soakSchedule lays the episodes out in a seed-drawn order, each at a
// seed-drawn offset inside its own slot of the fault phase, so no two
// overlap.
func soakSchedule(seed int64, t soakTargets, o chaos.Options) []chaos.Fault {
	r := rand.New(rand.NewSource(seed))
	eps := soakEpisodes(t, o)
	slot := o.Duration / time.Duration(len(eps))
	var out []chaos.Fault
	for i, k := range r.Perm(len(eps)) {
		ep := eps[k]
		at := time.Duration(i)*slot + time.Duration(r.Int63n(int64(slot-ep.length)))
		out = append(out, ep.draw(r, at, at+ep.length)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

type soakInstance struct {
	seed     int64
	rec      *obs.Recorder
	schedule []chaos.Fault
	rep      *chaos.Report
}

func newSoakInstance(seed int64) instance { return &soakInstance{seed: seed} }

// Setup draws the fault schedule and runs the warmup: a short chaos run of
// the same cluster, workload and mitigation stack with no faults (its job
// is to warm the process, not to test).
func (s *soakInstance) Setup(rec *obs.Recorder) error {
	s.rec = rec
	if s.rec == nil {
		// chaos.Run keeps probe-read latencies only in its recorder's
		// histogram, so even untraced runs carry a metrics registry (with
		// a one-event trace ring); it costs a few percent of run_s.
		s.rec = obs.NewRecorderCap(1)
	}
	t, err := newSoakTargets()
	if err != nil {
		return err
	}
	s.schedule = soakSchedule(s.seed, t, soakOptions(s.seed, soakDuration))
	rep, err := chaos.RunSchedule(soakOptions(s.seed, soakWarmup), nil)
	if err != nil {
		return err
	}
	if len(rep.Violations) > 0 {
		return fmt.Errorf("warmup run violated invariants: %s", rep.Violations[0])
	}
	return nil
}

// Run is the fault soak itself.
func (s *soakInstance) Run() error {
	o := soakOptions(s.seed, soakDuration)
	o.Recorder = s.rec
	rep, err := chaos.RunSchedule(o, s.schedule)
	s.rep = rep
	return err
}

// Finish reports the soak: the gate is an empty violation list (data
// audits, master/allocation/quarantine invariants and the model check).
// Foreground ops are the workload's writes, audit reads and hedged probe
// reads; latency covers the probe reads.
func (s *soakInstance) Finish() outcome {
	st := s.rep.Stats
	o := outcome{
		Attempted:  st.WritesAcked + st.WritesFailed + st.AuditReads + st.ProbeReads,
		Failed:     st.WritesFailed + st.ProbeErrors,
		SimSeconds: soakDuration.Seconds(),
		Samples:    st.ProbeReads - st.ProbeErrors,
		Violations: append([]string(nil), s.rep.Violations...),
	}
	o.Completed = o.Attempted - o.Failed
	// Latency covers the successful probe reads. The harness keeps their
	// latencies only in its recorder's histogram, failed reads included;
	// those are the reads that exhausted the client's 30 s retry budget
	// (measured over 60 sub-runs: reads slower than 4 s outnumbered failed
	// reads by 1 to 10 in every one), so dropping ProbeErrors samples from
	// the top leaves the successful reads. Quantiles are interpolated
	// within a bucket.
	if h := probeHistogram(s.rec); h != nil {
		o.Hist = h.trimTop(st.ProbeErrors)
		o.P50, o.P99 = o.Hist.quantile(0.5), o.Hist.quantile(0.99)
	}
	o.Text = s.rep.SummaryText() + s.rep.LogText()
	o.seal()
	return o
}

// Layers reports the chaos run's own outcome counters, and what its
// recorder saw of the scheduler and of elections (the harness exposes
// neither its scheduler nor its paxos nodes, so master elections, each a
// coord-backed leadership change, stand in for paxos elections). The
// recorder is attached for the timed phase only.
func (s *soakInstance) Layers(l layers) {
	snap := s.rec.Registry().Snapshot()
	l.set("paxos.elections", sumSeries(snap, "core", "elections_total", value))
	l.set("simtime.events", sumSeries(snap, "simtime", "events_fired", value))
	l.set("simtime.max_pending", sumSeries(snap, "simtime", "max_pending", value))
	st := s.rep.Stats
	l.set("core.remounts", float64(st.Remounts))
	l.set("core.hedges", float64(st.Hedges))
	l.set("core.hedge_wins", float64(st.HedgeWins))
	l.set("core.quarantines", float64(st.GrayQuarantines))
	l.set("model.ops_checked", float64(st.ModelOps))
}

// histogram is a snapshot of one obs histogram's buckets.
type histogram struct {
	bounds []float64 // upper bounds, seconds; last may be +Inf
	cum    []uint64  // cumulative counts
}

// probeHistogram snapshots chaos.Run's probe-read latency histogram.
func probeHistogram(rec *obs.Recorder) *histogram {
	for _, s := range rec.Registry().Snapshot().Metrics {
		if s.Name != "chaos_probe_read_seconds" || s.Count == 0 {
			continue
		}
		h := &histogram{}
		for _, b := range s.Buckets {
			v, err := strconv.ParseFloat(b.LE, 64)
			if err != nil {
				v = math.Inf(1)
			}
			h.bounds = append(h.bounds, v)
			h.cum = append(h.cum, b.Cumulative)
		}
		return h
	}
	return nil
}

// merge returns the bucket-wise sum of h and o (either may be nil; both
// come from the same obs bucket layout).
func (h *histogram) merge(o *histogram) *histogram {
	if h == nil {
		return o
	}
	if o == nil {
		return h
	}
	m := &histogram{bounds: h.bounds, cum: make([]uint64, len(h.cum))}
	for i := range m.cum {
		m.cum[i] = h.cum[i] + o.cum[i]
	}
	return m
}

// trimTop returns h without its k largest samples.
func (h *histogram) trimTop(k int) *histogram {
	keep := h.cum[len(h.cum)-1] - min(uint64(k), h.cum[len(h.cum)-1])
	t := &histogram{bounds: h.bounds, cum: make([]uint64, len(h.cum))}
	for i, c := range h.cum {
		t.cum[i] = min(c, keep)
	}
	return t
}

// quantile interpolates linearly within the bucket holding rank q·n. The
// buckets double in width, so the result is an estimate within the
// bucket's bounds; it is a pure function of the bucket counts, so it is as
// deterministic as the simulation.
func (h *histogram) quantile(q float64) time.Duration {
	n := h.cum[len(h.cum)-1]
	if n == 0 {
		return 0
	}
	rank := q * float64(n)
	lower, prev := 0.0, uint64(0)
	for i, c := range h.cum {
		if float64(c) >= rank && c > prev {
			upper := h.bounds[i]
			if math.IsInf(upper, 1) {
				upper = lower
			}
			frac := (rank - float64(prev)) / float64(c-prev)
			return time.Duration((lower + frac*(upper-lower)) * float64(time.Second))
		}
		lower, prev = h.bounds[i], c
	}
	return time.Duration(lower * float64(time.Second))
}
