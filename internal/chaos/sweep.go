package chaos

import (
	"fmt"
	"strings"

	"ustore/internal/obs"
	"ustore/internal/runner"
)

// Sweep runs base across n consecutive seeds (base.Seed, base.Seed+1, …,
// base.Seed+n-1) through run — Run for cluster options, RunFleet for fleet
// options — on up to parallel workers, returning one report per seed in
// seed order. Each run builds its own cluster and scheduler, so runs share
// no state and the reports are byte-identical to what n sequential calls
// would produce — TestSweepParallelMatchesSequential and
// TestFleetSweepParallelMatchesSequential prove it.
//
// recFor, when non-nil, supplies a fresh per-seed Recorder (installed as
// that run's Recorder). base's own Recorder is ignored: sharing one
// recorder across concurrent runs would interleave trace events
// nondeterministically.
func Sweep[O sweepable[O], R any](base O, n, parallel int, recFor func(seed int64) *obs.Recorder, run func(O) (R, error)) ([]R, error) {
	return runner.MapErr(n, parallel, func(i int) (R, error) {
		return run(base.forSeed(int64(i), recFor))
	})
}

// sweepable is an options struct Sweep can re-seed: Options or FleetOptions.
type sweepable[O any] interface {
	// forSeed returns the options of the sweep's i-th run.
	forSeed(i int64, recFor func(seed int64) *obs.Recorder) O
}

func (o Options) forSeed(i int64, recFor func(seed int64) *obs.Recorder) Options {
	o.Seed += i
	o.Recorder = seedRecorder(o.Seed, recFor)
	return o
}

func (o FleetOptions) forSeed(i int64, recFor func(seed int64) *obs.Recorder) FleetOptions {
	o.Seed += i
	o.Recorder = seedRecorder(o.Seed, recFor)
	return o
}

func seedRecorder(seed int64, recFor func(seed int64) *obs.Recorder) *obs.Recorder {
	if recFor == nil {
		return nil
	}
	return recFor(seed)
}

// SummaryText renders the per-seed summary block ustore-chaos prints for a
// run. Living here (rather than in the command) lets tests assert that a
// parallel sweep emits byte-identical summaries to a sequential one.
func (r *Report) SummaryText() string {
	var b strings.Builder
	if r.SLO != nil {
		b.WriteString(r.SLO.Text())
		if len(r.Violations) == 0 {
			b.WriteString("  invariants: all held\n")
			return b.String()
		}
		fmt.Fprintf(&b, "  INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "    %s\n", v)
		}
		return b.String()
	}
	s := r.Stats
	days := r.Opts.Duration.Hours() / 24
	fmt.Fprintf(&b, "seed %d, %.3g days: %d faults applied\n", r.Seed, days, s.FaultsApplied)
	fmt.Fprintf(&b, "  writes   %d acked, %d failed; %d remounts\n", s.WritesAcked, s.WritesFailed, s.Remounts)
	fmt.Fprintf(&b, "  audits   %d reads, %d checksum detections, %d repairs\n", s.AuditReads, s.CorruptionsDetected, s.Repairs)
	fmt.Fprintf(&b, "  scrubber %d scanned, %d bad, %d repaired, %d unrepaired\n", s.ScrubScanned, s.ScrubBad, s.ScrubRepaired, s.ScrubUnrepaired)
	fmt.Fprintf(&b, "  model    %d metadata ops checked in %d partitions\n", s.ModelOps, s.ModelPartitions)
	if r.Opts.GrayFaults || r.Opts.Mitigation {
		fmt.Fprintf(&b, "  gray     %d quarantines, %d migrations; %d probes (%d errors), p99 healthy %v / degraded %v\n",
			s.GrayQuarantines, s.GrayMigrations, s.ProbeReads, s.ProbeErrors, s.ProbeHealthyP99, s.ProbeDegradedP99)
		fmt.Fprintf(&b, "  hedging  %d hedges (%d wins), %d breaker opens, %d redirects, %d fast fails\n",
			s.Hedges, s.HedgeWins, s.BreakerOpens, s.Redirects, s.FastFails)
	}
	if len(r.Violations) == 0 {
		b.WriteString("  invariants: all held\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  INVARIANT VIOLATIONS (%d):\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    %s\n", v)
	}
	return b.String()
}
