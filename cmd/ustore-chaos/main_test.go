package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"ustore/internal/campaign"
	"ustore/internal/chaos"
	"ustore/internal/faults"
)

func resolve(t *testing.T, args []string) *cli {
	t.Helper()
	c, err := parseArgs(args, io.Discard)
	if err != nil {
		t.Fatalf("%q: %v", args, err)
	}
	return c
}

// chaosOpts is the cluster run the flag-built command line configured:
// DefaultOptions for the seed and days, then the flags' own fields.
func chaosOpts(seed int64, days float64, set func(*chaos.Options)) chaos.Options {
	o := chaos.DefaultOptions(seed, time.Duration(float64(24*time.Hour)*days))
	if set != nil {
		set(&o)
	}
	return o
}

func traffic(storm, protect bool) func(*chaos.Options) {
	return func(o *chaos.Options) {
		o.HostCrashes, o.DiskFaults, o.HubFaults, o.NetFaults, o.Corruptions = false, false, false, false, false
		o.Tenants, o.Storm, o.Protect = true, storm, protect
	}
}

// TestDocumentedInvocationsResolve: every ustore-chaos command line in CI
// and the README resolves, through the spec path, to exactly the options
// the flag-by-flag assignment used to build.
func TestDocumentedInvocationsResolve(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.yaml")
	if err := os.WriteFile(one, []byte("mode: faults\ndays: 0.5\nseed: 3\nfailure:\n  model: empirical\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	gray := func(o *chaos.Options) { o.GrayFaults, o.Mitigation = true, true }
	for _, tc := range []struct {
		args string
		want chaos.Options
		log  bool
	}{
		{"-seed 1 -days 1 -metrics-out metrics.json -trace-out trace.json", chaosOpts(1, 1, nil), false},
		{"-seed 1 -days 1 -gray -mitigation -metrics-out gray.json", chaosOpts(1, 1, gray), false},
		{"-tenants -storm -protect -seed 1 -slo-out slo.txt", chaosOpts(1, 2, traffic(true, true)), false},
		{"-seed 2 -days 0.25 -seeds 4 -parallel 2", chaosOpts(2, 0.25, nil), false},
		{"-seed 2 -days 0.25 -cpuprofile cpu.out -memprofile mem.out", chaosOpts(2, 0.25, nil), false},
		{"-seed 7 -days 2 -metrics-out metrics.json -trace-out trace.json", chaosOpts(7, 2, nil), false},
		{"-days 30 -seeds 8 -parallel 4", chaosOpts(1, 30, nil), false},
		{"-no-checksums -minimize -parallel 4", chaosOpts(1, 2, func(o *chaos.Options) { o.DisableChecksums = true }), false},
		{"-days 30 -cpuprofile cpu.out", chaosOpts(1, 30, nil), false},
		{"-tenants -storm -seed 1", chaosOpts(1, 2, traffic(true, false)), false},
		{"-tenants -storm -protect -seed 1", chaosOpts(1, 2, traffic(true, true)), false},
		{"-tenants -storm -protect -slo-out slo.txt", chaosOpts(1, 2, traffic(true, true)), false},
		{"-seed 7 -days 2 -log", chaosOpts(7, 2, nil), true},
		{"-stale-lease -minimize", chaosOpts(1, 2, func(o *chaos.Options) { o.InjectStaleLease = true }), false},
		{"-gray -mitigation -quarantine-blind -minimize", chaosOpts(1, 2, func(o *chaos.Options) {
			gray(o)
			o.InjectQuarantineBlind = true
		}), false},
		{"-spec " + one, chaosOpts(3, 0.5, func(o *chaos.Options) {
			o.Empirical, o.AgeYears = faults.DefaultEmpirical(), 5
		}), false},
	} {
		c := resolve(t, strings.Fields(tc.args))
		if c.spec.Mode == "fleet" {
			t.Fatalf("%s: resolved to mode fleet", tc.args)
		}
		if got := campaign.CompileChaos(c.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
		if c.spec.Output.Log != tc.log {
			t.Errorf("%s: output.log = %v", tc.args, c.spec.Output.Log)
		}
	}

	unitLoss := chaos.FleetOptions{Seed: 1, Units: 8, Shards: 2, UnitLoss: true}
	faultRun := chaos.FleetOptions{Seed: 1, Units: 16, Shards: 4, ReplicaCrashes: 2, Partitions: 1, SlotMoves: 2}
	withWorkers := func(o chaos.FleetOptions, n int) chaos.FleetOptions { o.EngineWorkers = n; return o }
	skipRedrive := faultRun
	skipRedrive.InjectSkipRedrive = true
	for _, tc := range []struct {
		args string
		want chaos.FleetOptions
		log  bool
	}{
		{"-fleet -units 8 -shards 2 -unit-loss -log", unitLoss, true},
		{"-fleet -units 48 -seed 3 -fleet-bench 1,4,16 -bench-out bench.json", chaos.FleetOptions{Seed: 3, Units: 48, Shards: 1}, false},
		{"-fleet -units 8 -shards 2 -unit-loss -engine-workers 1 -log", withWorkers(unitLoss, 1), true},
		{"-fleet -units 8 -shards 2 -unit-loss -engine-workers 8 -log", withWorkers(unitLoss, 8), true},
		{"-fleet -units 64 -seed 9 -fleet-bench 8 -engine-workers 1 -bench-out bench-w1.json", chaos.FleetOptions{Seed: 9, Units: 64, Shards: 1, EngineWorkers: 1}, false},
		{"-fleet -units 64 -seed 9 -fleet-bench 8 -engine-workers 8 -bench-out bench-w8.json", chaos.FleetOptions{Seed: 9, Units: 64, Shards: 1, EngineWorkers: 8}, false},
		{"-fleet -units 16 -shards 4 -crashes 2 -partitions 1 -moves 2 -log", faultRun, true},
		{"-fleet -units 16 -shards 4 -crashes 2 -partitions 1 -moves 2 -skip-redrive -minimize", skipRedrive, false},
		{"-fleet -units 256 -shards 16 -unit-loss", chaos.FleetOptions{Seed: 1, Units: 256, Shards: 16, UnitLoss: true}, false},
		{"-fleet -units 48 -fleet-bench 1,4,16", chaos.FleetOptions{Seed: 1, Units: 48, Shards: 1}, false},
		{"-fleet -units 64 -shards 8 -unit-loss -engine-workers 8", chaos.FleetOptions{Seed: 1, Units: 64, Shards: 8, UnitLoss: true, EngineWorkers: 8}, false},
		{"-fleet -units 64 -fleet-bench 8 -engine-workers 8 -bench-out b.json", chaos.FleetOptions{Seed: 1, Units: 64, Shards: 1, EngineWorkers: 8}, false},
		{"-fleet -units 64 -shards 8 -crashes 3 -partitions 2 -moves 2", chaos.FleetOptions{Seed: 1, Units: 64, Shards: 8, ReplicaCrashes: 3, Partitions: 2, SlotMoves: 2}, false},
		{"-fleet -shards 4 -crashes 2 -moves 2 -skip-redrive -minimize", chaos.FleetOptions{Seed: 1, Units: 8, Shards: 4, ReplicaCrashes: 2, SlotMoves: 2, InjectSkipRedrive: true}, false},
		{"-fleet -shards 2 -fault-window 90s -crashes 1", chaos.FleetOptions{Seed: 1, Units: 8, Shards: 2, ReplicaCrashes: 1, FaultWindow: 90 * time.Second}, false},
	} {
		c := resolve(t, strings.Fields(tc.args))
		if c.spec.Mode != "fleet" {
			t.Fatalf("%s: resolved to mode %s", tc.args, c.spec.Mode)
		}
		if got := campaign.CompileFleet(c.spec); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.args, got, tc.want)
		}
		if c.spec.Output.Log != tc.log {
			t.Errorf("%s: output.log = %v", tc.args, c.spec.Output.Log)
		}
	}
}

// TestRejectedCombinationsNameTheFlag: every combination the hand-written
// cross-flag lists used to reject still exits 2, now through the spec's
// mode → sections table, Validate, an override conflict, or a
// run-control rule — and the error names the offending flag.
func TestRejectedCombinationsNameTheFlag(t *testing.T) {
	for _, tc := range []struct{ args, flag string }{
		{"-days 0", "-days"},
		{"-seeds 0", "-seeds"},
		{"-seeds 2 -minimize", "-minimize"},
		{"-gray -quarantine-blind", "-quarantine-blind"},
		{"-unit-loss", "-unit-loss"},
		{"-fleet-bench 1", "-fleet-bench"},
		{"-bench-out b.json", "-bench-out"},
		{"-engine-workers 2", "-engine-workers"},
		{"-crashes 1", "-crashes"},
		{"-partitions 1", "-partitions"},
		{"-moves 1", "-moves"},
		{"-fault-window 1m", "-fault-window"},
		{"-skip-redrive", "-skip-redrive"},
		{"-fleet -tenants", "-tenants"},
		{"-fleet -gray", "-gray"},
		{"-fleet -mitigation", "-mitigation"},
		{"-fleet -stale-lease", "-stale-lease"},
		{"-fleet -quarantine-blind", "-quarantine-blind"},
		{"-fleet -no-checksums", "-no-checksums"},
		{"-fleet -trace-out t.json", "-trace-out"},
		{"-storm", "-storm"},
		{"-protect", "-protect"},
		{"-slo-out s.txt", "-slo-out"},
		{"-tenants -gray", "-gray"},
		{"-tenants -mitigation", "-mitigation"},
		{"-tenants -minimize", "-minimize"},
		{"-tenants -stale-lease", "-stale-lease"},
		{"-tenants -quarantine-blind", "-quarantine-blind"},
		{"-tenants -no-checksums", "-no-checksums"},
		// The P² streaming-quantile mode is gone.
		{"-tenants -stream-quantiles", "-stream-quantiles"},
		// A scenario flag the chosen mode does not read (silently ignored
		// before flags became spec overrides).
		{"-fleet -days 3", "-days"},
		{"-units 16", "-units"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(tc.args), &stdout, &stderr); code != 2 {
			t.Errorf("%s: exit %d, want 2", tc.args, code)
		}
		if !strings.Contains(stderr.String(), tc.flag) {
			t.Errorf("%s: error does not name %s:\n%s", tc.args, tc.flag, stderr.String())
		}
		if stdout.Len() != 0 {
			t.Errorf("%s: rejected run printed %q", tc.args, stdout.String())
		}
	}
}

// TestTrafficSpecHeaderMatchesFlags is the regression test for the traffic
// header: a mode: traffic spec used to keep the faults-mode families in
// its options and print them in the header of a run that injects none.
func TestTrafficSpecHeaderMatchesFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "storm.yaml")
	if err := os.WriteFile(path, []byte("mode: traffic\ntraffic:\n  storm: true\n  protect: true\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "ustore-chaos: seed 1, 2 days, faults: none, tenants storm protect"
	for _, args := range [][]string{{"-spec", path}, {"-tenants", "-storm", "-protect"}} {
		c := resolve(t, args)
		if got := mixHeader(campaign.CompileChaos(c.spec), c.seeds); got != want {
			t.Errorf("%q header:\n got %s\nwant %s", args, got, want)
		}
	}
}

// TestSpecHonoursRunControl: -spec runs take the run-control flags like
// flag runs do — here a two-seed sweep writing one metrics file per seed.
func TestSpecHonoursRunControl(t *testing.T) {
	dir := t.TempDir()
	one := filepath.Join(dir, "one.yaml")
	if err := os.WriteFile(one, []byte("mode: faults\ndays: 0.25\nseed: 3\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	m := filepath.Join(dir, "m.json")
	if code := run([]string{"-spec", one, "-seeds", "2", "-metrics-out", m}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	if !strings.HasPrefix(stdout.String(), "ustore-chaos: seeds 3..4,") {
		t.Errorf("header does not announce the sweep:\n%s", stdout.String())
	}
	for _, seed := range []string{"3", "4"} {
		if !strings.Contains(stdout.String(), "seed "+seed+", 0.25 days:") {
			t.Errorf("no report for seed %s:\n%s", seed, stdout.String())
		}
		fi, err := os.Stat(filepath.Join(dir, "m.seed"+seed+".json"))
		if err != nil || fi.Size() == 0 {
			t.Errorf("seed %s metrics file: %v", seed, err)
		}
	}
}

// TestFleetSweepWritesPerSeedMetrics: a fleet seed sweep writes one
// metrics file per seed, like the cluster sweep.
func TestFleetSweepWritesPerSeedMetrics(t *testing.T) {
	dir := t.TempDir()
	m := filepath.Join(dir, "m.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fleet", "-units", "4", "-seeds", "2", "-metrics-out", m}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d:\n%s%s", code, stdout.String(), stderr.String())
	}
	for _, seed := range []string{"1", "2"} {
		fi, err := os.Stat(filepath.Join(dir, "m.seed"+seed+".json"))
		if err != nil || fi.Size() == 0 {
			t.Errorf("seed %s metrics file: %v", seed, err)
		}
	}
}

// TestSpecAndFlagsPrintTheSameRun: a fleet spec and the flags that set the
// same fields print byte-identical output, header included.
func TestSpecAndFlagsPrintTheSameRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f.yaml")
	doc := "mode: fleet\nfleet:\n  units: 4\n  shards: 2\n  crashes: 1\noutput:\n  log: true\n"
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	out := func(args ...string) string {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("%q: exit %d: %s", args, code, stderr.String())
		}
		return stdout.String()
	}
	a := out("-fleet", "-units", "4", "-shards", "2", "-crashes", "1", "-log")
	b := out("-spec", path)
	if a != b {
		t.Fatalf("flag and spec runs differ:\n--- flags\n%s--- spec\n%s", a, b)
	}
	// A flag overrides the file's value and composes with it.
	if c := out("-spec", path, "-seed", "2"); !strings.HasPrefix(c, "ustore-chaos: fleet seed 2, 4 units, 2 shards") {
		t.Errorf("-seed did not override the spec:\n%s", c)
	}
}
