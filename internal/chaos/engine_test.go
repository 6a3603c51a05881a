package chaos

import (
	"bytes"
	"strings"
	"testing"

	"ustore/internal/obs"
)

// engineFleetRun runs the unit-loss scenario on the parallel engine with the
// given worker count and returns the report plus serialized metrics/trace.
func engineFleetRun(t *testing.T, units, shards, workers int) (*FleetReport, string, string) {
	t.Helper()
	rec := obs.NewRecorder()
	rep, err := RunFleet(FleetOptions{
		Seed:          9,
		Units:         units,
		Shards:        shards,
		UnitLoss:      true,
		Recorder:      rec,
		EngineWorkers: workers,
	})
	if err != nil {
		t.Fatalf("engine run (workers=%d): %s", workers, err)
	}
	var m, tr bytes.Buffer
	if err := rec.Registry().WriteJSON(&m); err != nil {
		t.Fatal(err)
	}
	if err := rec.Tracer().WriteChromeTrace(&tr); err != nil {
		t.Fatal(err)
	}
	return rep, m.String(), tr.String()
}

// TestFleetEngineUnitLoss is the functional gate for the partitioned engine:
// the full load -> kill-unit -> drain -> verify scenario must pass with the
// fleet sharded across per-unit partitions.
func TestFleetEngineUnitLoss(t *testing.T) {
	rep, _, _ := engineFleetRun(t, 8, 2, 2)
	if len(rep.Violations) != 0 {
		t.Fatalf("violations:\n%s", strings.Join(rep.Violations, "\n"))
	}
	if !rep.Drained {
		t.Fatalf("unit not drained:\n%s", rep.LogText())
	}
	if rep.Failed != 0 || rep.Allocated != rep.Opts.Volumes {
		t.Fatalf("load phase: %d allocated, %d failed, want %d/0",
			rep.Allocated, rep.Failed, rep.Opts.Volumes)
	}
	if rep.Resolvable != rep.Allocated {
		t.Fatalf("resolvable %d != allocated %d", rep.Resolvable, rep.Allocated)
	}
}

// TestFleetEngineByteDeterminism is the engine's determinism contract: the
// same seed produces byte-identical logs, summaries, metrics JSON, trace
// JSON, and event counts at every worker count, the default 0 (one worker)
// included. Worker count only sizes the goroutine pool that executes each
// synchronization window; it never moves a window boundary.
func TestFleetEngineByteDeterminism(t *testing.T) {
	units, shards := 8, 2
	if !testing.Short() {
		units, shards = 64, 8
	}
	base, bm, bt := engineFleetRun(t, units, shards, 1)
	if len(base.Violations) != 0 {
		t.Fatalf("violations at workers=1:\n%s", strings.Join(base.Violations, "\n"))
	}
	for _, workers := range []int{0, 2, 8} {
		rep, m, tr := engineFleetRun(t, units, shards, workers)
		if rep.LogText() != base.LogText() {
			t.Fatalf("workers=%d: log diverges from workers=1:\n--- w1\n%s\n--- w%d\n%s",
				workers, base.LogText(), workers, rep.LogText())
		}
		if rep.SummaryText() != base.SummaryText() {
			t.Fatalf("workers=%d: summary diverges:\n%s\nvs\n%s",
				workers, base.SummaryText(), rep.SummaryText())
		}
		if rep.Events != base.Events {
			t.Fatalf("workers=%d: event count %d != %d", workers, rep.Events, base.Events)
		}
		if m != bm {
			t.Fatalf("workers=%d: metrics JSON diverges from workers=1", workers)
		}
		if tr != bt {
			t.Fatalf("workers=%d: trace JSON diverges from workers=1", workers)
		}
	}
}
