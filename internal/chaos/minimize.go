package chaos

import (
	"fmt"

	"ustore/internal/runner"
)

// Minimize runs the seeded schedule and, if it produced violations, bisects
// for the shortest schedule prefix that still violates. Truncated prefixes
// are well-formed because the harness's drain phase heals any fault window
// whose closing event was cut off. Returns the minimized schedule, the
// report of its run, and the full run's report.
//
// If the full run is clean, Minimize returns (nil, nil, full, nil).
func Minimize(o Options) (schedule []Fault, minimized, full *Report, err error) {
	return MinimizeParallel(o, 1)
}

// MinimizeParallel is Minimize with speculative parallel bisection: each
// round probes up to parallel prefix lengths concurrently (see
// bisectPrefix). Because every probe is a self-contained deterministic run
// keyed only by (options, prefix length), the minimized schedule and report
// are byte-identical to Minimize's. parallel <= 1 degenerates to the plain
// sequential bisection.
//
// Probe runs never feed o.Recorder (concurrent probes would interleave its
// trace nondeterministically, and speculated probes would pollute it with
// runs the sequential search never performs); only the initial full run
// records. The model-checker history needs no such carve-out: each probe's
// harness builds its own model.History (there is no history field on
// Options to leak through), so probe metadata ops can never reach the
// parent run's history — TestMinimizeProbesDoNotFeedParentRecorder covers
// both isolation properties.
func MinimizeParallel(o Options, parallel int) (schedule []Fault, minimized, full *Report, err error) {
	h, err := newHarness(o)
	if err != nil {
		return nil, nil, nil, err
	}
	all := genSchedule(o, h.hostNames(), h.diskNames(), h.leafHubNames(), h.machineNames())
	full, err = h.execute(all)
	if err != nil {
		return nil, nil, nil, err
	}
	if len(full.Violations) == 0 {
		return nil, nil, full, nil
	}
	oProbe := o
	oProbe.Recorder = nil
	schedule, minimized, err = bisectPrefix(all, full, parallel,
		func(prefix []Fault) (*Report, error) { return RunSchedule(oProbe, prefix) },
		func(r *Report) bool { return len(r.Violations) > 0 })
	if err != nil {
		return nil, nil, nil, fmt.Errorf("chaos: minimizing: %w", err)
	}
	return schedule, minimized, full, nil
}

// bisectPrefix binary-searches the shortest prefix of the violating
// schedule all that still violates, given full, the report of all's own
// run. probe runs one prefix and violates judges its report.
//
// Each round expands the upcoming binary-search decision tree breadth-first
// — the next midpoint, then both midpoints that could follow it, and so on
// — until it has up to parallel distinct prefix lengths, probes them all
// concurrently, and then replays the sequential bisection over the
// collected results. probe must be a deterministic function of the prefix,
// so speculation never changes the answer, only the work done.
//
// Fault interactions are not strictly monotone (a later fault can mask an
// earlier violation), so the search can converge on the full length; it
// then returns all and full unchanged.
func bisectPrefix[F, R any](all []F, full R, parallel int,
	probe func([]F) (R, error), violates func(R) bool) ([]F, R, error) {
	if parallel < 1 {
		parallel = 1
	}
	lo, hi := 1, len(all) // invariant: all[:hi] violates (or hi == len(all))
	best := full
	for lo < hi {
		type span struct{ lo, hi int }
		frontier := []span{{lo, hi}}
		var mids []int
		seen := make(map[int]bool)
		for len(frontier) > 0 && len(mids) < parallel {
			s := frontier[0]
			frontier = frontier[1:]
			if s.lo >= s.hi {
				continue
			}
			mid := (s.lo + s.hi) / 2
			if !seen[mid] {
				seen[mid] = true
				mids = append(mids, mid)
			}
			frontier = append(frontier, span{s.lo, mid}, span{mid + 1, s.hi})
		}

		reports, err := runner.MapErr(len(mids), parallel, func(i int) (R, error) {
			return probe(all[:mids[i]])
		})
		if err != nil {
			return nil, best, err
		}
		byMid := make(map[int]R, len(mids))
		for i, mid := range mids {
			byMid[mid] = reports[i]
		}

		// The walk stops when it needs a midpoint outside this round's
		// speculation (possible when the tree was cut mid-level); the next
		// round resumes from there.
		for lo < hi {
			mid := (lo + hi) / 2
			rep, ok := byMid[mid]
			if !ok {
				break
			}
			if violates(rep) {
				hi = mid
				best = rep
			} else {
				lo = mid + 1
			}
		}
	}
	if lo < len(all) {
		return all[:lo], best, nil
	}
	return all, full, nil
}
