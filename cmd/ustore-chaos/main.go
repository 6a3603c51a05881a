// Command ustore-chaos runs the deterministic chaos harness against a
// simulated UStore cluster and reports invariant violations.
//
//	ustore-chaos -seed 7 -days 100          # seeded all-fault soak
//	ustore-chaos -seed 7 -days 2 -log       # print the event log
//	ustore-chaos -seeds 8 -parallel 4       # sweep seeds 1..8 on 4 workers
//	ustore-chaos -no-checksums -minimize    # shrink a violating schedule
//	ustore-chaos -stale-lease -minimize     # model checker catches a seeded bug
//	ustore-chaos -gray -mitigation          # fail-slow faults + the mitigation stack
//	ustore-chaos -gray                      # same faults, unmitigated (tail comparison)
//	ustore-chaos -gray -mitigation -quarantine-blind -minimize  # quarantine checker demo
//	ustore-chaos -metrics-out m.json -trace-out t.json
//	ustore-chaos -days 30 -cpuprofile cpu.out
//	ustore-chaos -fleet -units 8 -shards 2 -unit-loss   # fleet-scale unit-loss run
//	ustore-chaos -fleet -units 48 -fleet-bench 1,4,16   # shard-scaling throughput sweep
//	ustore-chaos -fleet -units 64 -engine-workers 8     # fleet on 8 engine workers
//	ustore-chaos -fleet -units 64 -shards 8 -crashes 3 -partitions 2 -moves 2
//	                                                    # fleet chaos: crash/partition/
//	                                                    # mid-migration fault schedule
//	ustore-chaos -fleet -shards 4 -crashes 2 -moves 2 -skip-redrive -minimize
//	                                                    # plant the skipped-redrive bug,
//	                                                    # shrink to the violating prefix
//	ustore-chaos -spec scenario.yaml                    # one declarative spec-file run
//	ustore-chaos -spec scenario.yaml -seeds 4 -log      # the same, swept over 4 seeds
//
// Every run is one experiment spec (internal/spec). -spec names the file;
// without it the run starts from the document "mode: faults". Each
// scenario flag set on the command line overrides one spec path, on top of
// the file, so -spec composes with flags and a flag run and a -spec run
// take the same decode → validate → compile → run path:
//
//	flag                 spec path
//	-seed N              seed
//	-days D              days
//	-fleet               mode: fleet
//	-tenants             mode: traffic
//	-gray                faults.gray
//	-mitigation          faults.mitigation
//	-no-checksums        faults.no_checksums
//	-stale-lease         faults.stale_lease
//	-quarantine-blind    faults.quarantine_blind
//	-storm               traffic.storm
//	-protect             traffic.protect
//	-units N             fleet.units
//	-shards N            fleet.shards
//	-unit-loss           fleet.unit_loss
//	-engine-workers N    fleet.engine_workers
//	-crashes N           fleet.crashes
//	-partitions N        fleet.partitions
//	-moves N             fleet.slot_moves
//	-fault-window D      fleet.fault_window_sec (D converted to seconds)
//	-skip-redrive        fleet.skip_redrive
//	-log                 output.log
//
// Each mode reads only some spec sections (faults: days, faults, failure,
// output; traffic: days, traffic, output; fleet: fleet, output), so a flag
// the chosen mode would ignore is an error naming the flag, as are two
// flags that set one path to different values (-fleet -tenants).
//
// The other flags control how the spec runs, in every mode it allows.
// -seeds N runs N consecutive seeds starting at the spec's seed; -parallel
// P spreads independent runs over P workers (<1 = one per CPU). Every run
// is its own deterministic simulation, so the per-seed reports are
// byte-identical at any worker count, and -minimize speculatively probes
// bisection prefixes in parallel while committing the exact sequential
// search path. With -seeds > 1, -metrics-out / -trace-out / -slo-out write
// one file per seed (the seed number is inserted before the extension).
//
// -metrics-out writes the run's metrics registry as JSON (or Prometheus
// text with a .prom suffix); -trace-out writes a Chrome trace_event file
// loadable in chrome://tracing or https://ui.perfetto.dev. -cpuprofile /
// -memprofile write runtime/pprof profiles like go test's flags of the
// same names.
//
// Exit status 1 means at least one invariant was violated; 2 means bad
// flags or a bad spec.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"ustore/internal/campaign"
	"ustore/internal/chaos"
	"ustore/internal/obs"
	"ustore/internal/prof"
	"ustore/internal/spec"
	"ustore/internal/workload"
)

// scenarioFlags are the flags that describe the run. Each overrides the
// spec path beside it ("mode=<m>" sets mode to m when the flag is true);
// its value reaches the run only as spec text, checked by the spec
// decoder like a document value.
var scenarioFlags = []struct {
	name, path string
	isBool     bool
	def        string // default shown by -h; the spec supplies the real one
	usage      string
}{
	{"seed", "seed", false, "1", "schedule + simulation seed (first seed of a sweep)"},
	{"days", "days", false, "2", "fault-phase length in simulated days"},
	{"fleet", "mode=fleet", true, "", "run the fleet-scale harness (sharded metadata control plane) instead of a fault schedule"},
	{"tenants", "mode=traffic", true, "", "run the multi-tenant traffic engine instead of a fault schedule (per-class SLO report)"},
	{"gray", "faults.gray", true, "", "inject gray faults: fail-slow disks, USB link flaps/downgrades, host brownouts"},
	{"mitigation", "faults.mitigation", true, "", "enable the detect-quarantine-hedge mitigation stack (usually with -gray)"},
	{"no-checksums", "faults.no_checksums", true, "", "disable per-block CRCs (silent corruption reaches clients)"},
	{"stale-lease", "faults.stale_lease", true, "", "inject the stale-lease failover bug (model-checker demo; pairs with -minimize)"},
	{"quarantine-blind", "faults.quarantine_blind", true, "", "make the allocator ignore quarantine (invariant-checker demo; needs -mitigation)"},
	{"storm", "traffic.storm", true, "", "add the restore-storm waves to a -tenants run"},
	{"protect", "traffic.protect", true, "", "arm the admission/throttle/autoscale protection stack in a -tenants run"},
	{"units", "fleet.units", false, "8", "fleet mode: deploy units (64 disks each at defaults)"},
	{"shards", "fleet.shards", false, "1", "fleet mode: metadata shards"},
	{"unit-loss", "fleet.unit_loss", true, "", "fleet mode: kill unit u000 after the load phase and require the repair schedulers to drain it"},
	{"engine-workers", "fleet.engine_workers", false, "", "fleet mode: parallel conservative engine workers (pool size; 0 = 1; results are byte-identical at any count)"},
	{"crashes", "fleet.crashes", false, "", "fleet mode: shard-replica crash/restart cycles in the fault schedule"},
	{"partitions", "fleet.partitions", false, "", "fleet mode: inter-unit partition (or leader-isolation) windows in the fault schedule"},
	{"moves", "fleet.slot_moves", false, "", "fleet mode: schedule-driven slot migrations; the first is straddled by a source-leader crash (needs -shards >= 2)"},
	{"fault-window", "fleet.fault_window_sec", false, "", "fleet mode: fault phase length, a duration (default 2m when any fault knob is set)"},
	{"skip-redrive", "fleet.skip_redrive", true, "", "fleet mode: plant the skipped-ledger-re-drive recovery bug (model-checker demo; pairs with -minimize)"},
	{"log", "output.log", true, "", "print the full event log"},
}

// specFlag is a scenario flag's value: spec text for one path.
type specFlag struct {
	path, text string
	isBool     bool
}

func (f *specFlag) String() string {
	if f == nil {
		return ""
	}
	return f.text
}

func (f *specFlag) IsBoolFlag() bool { return f.isBool }

// Set stores the flag's text in the spec's scalar form: a bool as
// true/false, the -fault-window duration as seconds.
func (f *specFlag) Set(s string) error {
	switch {
	case f.isBool:
		b, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		s = strconv.FormatBool(b)
	case strings.HasSuffix(f.path, "_sec"):
		d, err := time.ParseDuration(s)
		if err != nil {
			return err
		}
		s = strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	f.text = s
	return nil
}

// cli is one resolved invocation: the decoded spec plus the run-control
// flags.
type cli struct {
	stdout, stderr io.Writer

	spec                 *spec.Spec
	seeds, parallel      int
	minimize, showSched  bool
	metricsOut, traceOut string
	sloOut               string
	fleetBench, benchOut string
	cpuProfile           string
	memProfile           string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseArgs(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		if !errors.Is(err, errFlagSyntax) {
			fmt.Fprintf(stderr, "ustore-chaos: %v\n", err)
		}
		return 2
	}
	c.stdout = stdout

	stopProf, err := prof.Start(c.cpuProfile, c.memProfile)
	if err != nil {
		return c.fail("%v", err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			c.fail("%v", err)
		}
	}()
	if c.spec.Mode == "fleet" {
		return c.runFleet(campaign.CompileFleet(c.spec))
	}
	return c.runChaos(campaign.CompileChaos(c.spec))
}

// errFlagSyntax marks a command line the flag package already rejected
// (and printed usage for).
var errFlagSyntax = errors.New("bad flag syntax")

// parseArgs resolves a command line into its decoded spec and run-control
// settings, applying every rule that makes an invocation invalid.
func parseArgs(args []string, stderr io.Writer) (*cli, error) {
	c := &cli{stderr: stderr}
	fs := flag.NewFlagSet("ustore-chaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "", "experiment spec file (YAML/JSON, no grid) the scenario flags override; without it the run starts from mode: faults (grids belong to ustore-campaign)")
	fs.IntVar(&c.seeds, "seeds", 1, "number of consecutive seeds to run")
	fs.IntVar(&c.parallel, "parallel", 1, "workers for a seed sweep or -minimize probing (<1 = one per CPU)")
	fs.BoolVar(&c.minimize, "minimize", false, "on violation, bisect the schedule to the shortest violating prefix")
	fs.BoolVar(&c.showSched, "schedule", false, "print the generated fault schedule")
	fs.StringVar(&c.fleetBench, "fleet-bench", "", "fleet mode: comma-separated shard counts to measure allocation throughput for (e.g. 1,4,16)")
	fs.StringVar(&c.benchOut, "bench-out", "", "fleet mode: write the -fleet-bench JSON to this file (default stdout)")
	fs.StringVar(&c.sloOut, "slo-out", "", "write the traffic run's SLO report to this file")
	fs.StringVar(&c.metricsOut, "metrics-out", "", "write end-of-run metrics to this file (JSON, or Prometheus text if it ends in .prom)")
	fs.StringVar(&c.traceOut, "trace-out", "", "write a Chrome trace_event JSON file for chrome://tracing")
	fs.StringVar(&c.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.memProfile, "memprofile", "", "write a heap profile to this file on exit")

	for _, sf := range scenarioFlags {
		fs.Var(&specFlag{path: sf.path, text: sf.def, isBool: sf.isBool}, sf.name, sf.usage)
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil, err
		}
		return nil, errFlagSyntax
	}

	var overrides []spec.Override
	fs.Visit(func(fl *flag.Flag) {
		f, ok := fl.Value.(*specFlag)
		if !ok {
			return
		}
		path, val := f.path, f.text
		if p, mode, isMode := strings.Cut(path, "="); isMode {
			if val != "true" {
				return
			}
			path, val = p, mode
		}
		overrides = append(overrides, spec.Override{Path: path, Value: val, Flag: "-" + fl.Name})
	})
	data, file := []byte("mode: faults\n"), "flags"
	if *specPath != "" {
		var err error
		if data, err = os.ReadFile(*specPath); err != nil {
			return nil, err
		}
		file = *specPath
	}
	f, err := spec.ParseWith(data, file, overrides)
	if err != nil {
		return nil, err
	}
	if len(f.Axes) > 0 {
		return nil, fmt.Errorf("%s has a parameter grid; run it with ustore-campaign -spec %s", file, file)
	}
	c.spec = f.Spec
	return c, c.checkRunControl()
}

// checkRunControl applies the rules for the run-control flags, which
// depend on the decoded mode rather than on other flags.
func (c *cli) checkRunControl() error {
	mode := c.spec.Mode
	switch {
	case mode != "faults" && mode != "traffic" && mode != "fleet":
		return fmt.Errorf("spec mode %q runs under ustore-campaign, not ustore-chaos", mode)
	case c.seeds < 1:
		return errors.New("-seeds must be >= 1")
	case c.minimize && c.seeds > 1:
		return errors.New("-minimize works on a single seed (drop -seeds)")
	case c.minimize && mode == "traffic":
		return errors.New("-minimize cannot combine with mode traffic (a traffic run has no fault schedule to shrink)")
	case c.traceOut != "" && mode == "fleet":
		return errors.New("-trace-out cannot combine with mode fleet")
	case c.fleetBench != "" && mode != "fleet":
		return errors.New("-fleet-bench needs mode fleet (-fleet)")
	case c.benchOut != "" && mode != "fleet":
		return errors.New("-bench-out needs mode fleet (-fleet)")
	case c.sloOut != "" && mode != "traffic":
		return errors.New("-slo-out needs mode traffic (-tenants)")
	}
	return nil
}

// fail reports a run error on stderr and returns exit status 2.
func (c *cli) fail(format string, a ...any) int {
	fmt.Fprintf(c.stderr, "ustore-chaos: "+format+"\n", a...)
	return 2
}

func exitStatus(violated bool) int {
	if violated {
		return 1
	}
	return 0
}

// recorders returns the per-seed Recorder lookup Sweep takes: a fresh
// Recorder for each of the run's seeds when it writes metrics or a trace,
// nil otherwise.
func (c *cli) recorders(first int64) func(seed int64) *obs.Recorder {
	if c.metricsOut == "" && c.traceOut == "" {
		return nil
	}
	recs := make([]*obs.Recorder, c.seeds)
	for i := range recs {
		recs[i] = obs.NewRecorder()
	}
	return func(seed int64) *obs.Recorder { return recs[seed-first] }
}

// writeFiles writes one seed's requested output files. A sweep inserts
// the seed into each name so per-seed outputs don't clobber each other:
// m.json -> m.seed7.json.
func (c *cli) writeFiles(seed int64, recFor func(seed int64) *obs.Recorder, slo *workload.SLOReport) int {
	path := func(p string) string {
		if c.seeds == 1 {
			return p
		}
		if i := strings.LastIndexByte(p, '.'); i > strings.LastIndexByte(p, '/') {
			return fmt.Sprintf("%s.seed%d%s", p[:i], seed, p[i:])
		}
		return fmt.Sprintf("%s.seed%d", p, seed)
	}
	if c.metricsOut != "" {
		if err := writeMetrics(recFor(seed), path(c.metricsOut)); err != nil {
			return c.fail("writing metrics: %v", err)
		}
	}
	if c.traceOut != "" {
		if err := writeTrace(recFor(seed), path(c.traceOut)); err != nil {
			return c.fail("writing trace: %v", err)
		}
	}
	if c.sloOut != "" {
		if err := os.WriteFile(path(c.sloOut), []byte(slo.Text()), 0o644); err != nil {
			return c.fail("writing SLO report: %v", err)
		}
	}
	return 0
}

// writeMetrics dumps the registry to path: Prometheus text for .prom files,
// JSON otherwise.
func writeMetrics(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".prom") {
		return rec.Registry().WritePrometheus(f)
	}
	return rec.Registry().WriteJSON(f)
}

func writeTrace(rec *obs.Recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return rec.Tracer().WriteChromeTrace(f)
}

// mixHeader renders the run header: the effective fault mix and injected
// bugs, so a pasted report is self-describing (a gray run with mitigation
// off reads very differently from one with it on).
func mixHeader(o chaos.Options, seeds int) string {
	var fams []string
	add := func(on bool, name string) {
		if on {
			fams = append(fams, name)
		}
	}
	add(o.HostCrashes, "host-crashes")
	add(o.DiskFaults, "disk-faults")
	add(o.HubFaults, "hub-faults")
	add(o.NetFaults, "net-faults")
	add(o.Corruptions, "corruptions")
	add(o.GrayFaults, "gray-faults")
	if len(fams) == 0 {
		fams = append(fams, "none")
	}
	var mods []string
	add2 := func(on bool, name string) {
		if on {
			mods = append(mods, name)
		}
	}
	add2(o.Mitigation, "mitigation")
	add2(o.DisableChecksums, "no-checksums")
	add2(o.InjectStaleLease, "stale-lease")
	add2(o.InjectQuarantineBlind, "quarantine-blind")
	add2(o.Tenants, "tenants")
	add2(o.Storm, "storm")
	add2(o.Protect, "protect")
	h := fmt.Sprintf("ustore-chaos: seed %d", o.Seed)
	if seeds > 1 {
		h = fmt.Sprintf("ustore-chaos: seeds %d..%d", o.Seed, o.Seed+int64(seeds)-1)
	}
	h += fmt.Sprintf(", %.3g days, faults: %s", o.Duration.Hours()/24, strings.Join(fams, " "))
	if len(mods) > 0 {
		h += ", " + strings.Join(mods, " ")
	}
	return h
}

// runChaos executes a faults- or traffic-mode run: one seed, a seed sweep,
// or a schedule-minimizing run, printing each seed's report in seed order.
func (c *cli) runChaos(o chaos.Options) int {
	fmt.Fprintln(c.stdout, mixHeader(o, c.seeds))
	recFor := c.recorders(o.Seed)
	var reps []*chaos.Report
	if c.minimize {
		if recFor != nil {
			o.Recorder = recFor(o.Seed)
		}
		sched, min, full, err := chaos.MinimizeParallel(o, c.parallel)
		if err != nil {
			return c.fail("%v", err)
		}
		if min != nil {
			fmt.Fprintf(c.stdout, "minimized schedule: %d of %d faults still violate\n", len(sched), len(full.Schedule))
			for _, f := range sched {
				fmt.Fprintf(c.stdout, "  %-14v %s\n", f.At, f)
			}
			full = min
		}
		reps = []*chaos.Report{full}
	} else {
		var err error
		if reps, err = chaos.Sweep(o, c.seeds, c.parallel, recFor, chaos.Run); err != nil {
			return c.fail("%v", err)
		}
	}

	violated := false
	for i, rep := range reps {
		if code := c.writeFiles(o.Seed+int64(i), recFor, rep.SLO); code != 0 {
			return code
		}
		if c.showSched {
			for _, f := range rep.Schedule {
				fmt.Fprintf(c.stdout, "  %-14v %s\n", f.At, f)
			}
		}
		if c.spec.Output.Log {
			fmt.Fprintln(c.stdout, rep.LogText())
		}
		fmt.Fprint(c.stdout, rep.SummaryText())
		violated = violated || len(rep.Violations) > 0
	}
	return exitStatus(violated)
}

// runFleet executes the fleet-scale harness: a bench sweep under
// -fleet-bench, a schedule-minimizing run under -minimize, otherwise one
// run per seed.
func (c *cli) runFleet(o chaos.FleetOptions) int {
	if c.fleetBench != "" {
		return c.runFleetBench(o)
	}
	header := fmt.Sprintf("ustore-chaos: fleet seed %d", o.Seed)
	if c.seeds > 1 {
		header = fmt.Sprintf("ustore-chaos: fleet seeds %d..%d", o.Seed, o.Seed+int64(c.seeds)-1)
	}
	fmt.Fprintf(c.stdout, "%s, %d units, %d shards, unit-loss=%v, engine-workers=%d\n",
		header, o.Units, o.Shards, o.UnitLoss, o.EngineWorkers)
	if o.ReplicaCrashes > 0 || o.Partitions > 0 || o.SlotMoves > 0 {
		fmt.Fprintf(c.stdout, "fleet faults: %d crashes, %d partitions, %d slot moves, skip-redrive=%v\n",
			o.ReplicaCrashes, o.Partitions, o.SlotMoves, o.InjectSkipRedrive)
	}
	if c.minimize {
		return c.runFleetMinimize(o)
	}

	recFor := c.recorders(o.Seed)
	reps, err := chaos.Sweep(o, c.seeds, c.parallel, recFor, chaos.RunFleet)
	if err != nil {
		return c.fail("%v", err)
	}
	violated := false
	for i, rep := range reps {
		if code := c.writeFiles(o.Seed+int64(i), recFor, nil); code != 0 {
			return code
		}
		if c.spec.Output.Log {
			fmt.Fprintln(c.stdout, rep.LogText())
		}
		fmt.Fprint(c.stdout, rep.SummaryText())
		violated = violated || len(rep.Violations) > 0
	}
	return exitStatus(violated)
}

// runFleetMinimize runs the seeded fleet fault schedule and, on violation,
// bisects (with parallel speculative probes) for the shortest schedule
// prefix that still violates, then prints the surviving faults — the
// normal first step when a fleet chaos run goes red.
func (c *cli) runFleetMinimize(o chaos.FleetOptions) int {
	sched, min, full, err := chaos.MinimizeFleet(o, c.parallel)
	if err != nil {
		return c.fail("%v", err)
	}
	rep := full
	if min != nil {
		fmt.Fprintf(c.stdout, "minimized fleet schedule: %d of %d faults still violate\n",
			len(sched), full.FaultsApplied)
		for _, ft := range sched {
			fmt.Fprintf(c.stdout, "  %s\n", ft)
		}
		rep = min
	}
	if c.spec.Output.Log {
		fmt.Fprintln(c.stdout, rep.LogText())
	}
	fmt.Fprint(c.stdout, rep.SummaryText())
	return exitStatus(min != nil)
}

// runFleetBench measures allocation throughput at each -fleet-bench shard
// count on a fixed fleet, emitting a JSON document to -bench-out (stdout
// when empty). Offered load scales with capacity: 8 saturating closed-loop
// clients per shard.
func (c *cli) runFleetBench(o chaos.FleetOptions) int {
	const (
		warmup = 3 * time.Second
		window = 6 * time.Second
	)
	type point struct {
		Shards       int     `json:"shards"`
		Clients      int     `json:"clients"`
		AllocsPerSec float64 `json:"allocs_per_sec"`
		Speedup      float64 `json:"speedup_vs_1_shard"`
	}
	doc := struct {
		Bench     string  `json:"bench"`
		Seed      int64   `json:"seed"`
		Units     int     `json:"units"`
		WarmupSec float64 `json:"warmup_sec"`
		WindowSec float64 `json:"window_sec"`
		Points    []point `json:"points"`
	}{Bench: "fleet-alloc-shard-scaling", Seed: o.Seed, Units: o.Units,
		WarmupSec: warmup.Seconds(), WindowSec: window.Seconds()}
	for _, fld := range strings.Split(c.fleetBench, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(fld))
		if err != nil || n < 1 {
			return c.fail("bad -fleet-bench shard count %q", fld)
		}
		v, err := chaos.MeasureFleetAlloc(chaos.FleetOptions{
			Seed:          o.Seed,
			Units:         o.Units,
			Shards:        n,
			Clients:       8 * n,
			VolumeSize:    8 << 20,
			EngineWorkers: o.EngineWorkers,
		}, warmup, window)
		if err != nil {
			return c.fail("fleet bench %d shards: %v", n, err)
		}
		p := point{Shards: n, Clients: 8 * n, AllocsPerSec: v, Speedup: 1}
		if len(doc.Points) > 0 {
			p.Speedup = v / doc.Points[0].AllocsPerSec
		}
		doc.Points = append(doc.Points, p)
		fmt.Fprintf(c.stderr, "ustore-chaos: fleet bench %2d shards: %.0f allocs/sec\n", n, v)
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return c.fail("%v", err)
	}
	out = append(out, '\n')
	if c.benchOut == "" {
		fmt.Fprint(c.stdout, string(out))
		return 0
	}
	if err := os.WriteFile(c.benchOut, out, 0o644); err != nil {
		return c.fail("writing bench: %v", err)
	}
	return 0
}
