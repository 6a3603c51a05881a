package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"ustore/internal/obs"
)

// staleLeaseOptions is the mutation scenario: host crashes only (so every
// violation can come only from the failover protocol), with the deliberate
// stale-lease bug switched on or off.
func staleLeaseOptions(seed int64, bug bool) Options {
	o := DefaultOptions(seed, 2*24*time.Hour)
	o.DiskFaults = false
	o.HubFaults = false
	o.NetFaults = false
	o.Corruptions = false
	o.InjectStaleLease = bug
	return o
}

// TestModelCheckerCatchesStaleLease is the mutation self-test the tentpole
// demands: with InjectStaleLease, a crashed host's endpoint skips export
// revocation, so after failover the old host still holds a serving lease
// while the master exports the disk at the new one. The stored data stays
// byte-identical (both exports reference the same simulated platters), so
// the read-back audits all pass — only the linearizability check against
// the reference model can see the double-serving metadata state. A clean
// harness run here would mean the checker has no teeth.
func TestModelCheckerCatchesStaleLease(t *testing.T) {
	rep, err := Run(staleLeaseOptions(*chaosSeed, true))
	if err != nil {
		t.Fatalf("chaos run: %v", err)
	}
	if rep.Stats.ModelOps == 0 {
		t.Fatal("run recorded no metadata operations; history wiring is dead")
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "model:") && strings.Contains(v, "lease") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("stale-lease bug injected but the model checker reported no lease violation; violations:\n%s",
			strings.Join(rep.Violations, "\n"))
	}
	for _, v := range rep.Violations {
		if !strings.Contains(v, "model:") {
			t.Errorf("stale lease leaked into a data-path invariant (should be metadata-only): %s", v)
		}
	}
}

// TestModelViolationMinimizes shrinks the stale-lease violation down to the
// few faults that actually matter: one crash window (two schedule entries)
// is enough to trigger failover, so minimization must land at or below five
// faults.
func TestModelViolationMinimizes(t *testing.T) {
	o := staleLeaseOptions(*chaosSeed, true)
	sched, minimized, full, err := MinimizeParallel(o, 2)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if full == nil || len(full.Violations) == 0 {
		t.Fatal("expected the full stale-lease run to violate")
	}
	if minimized == nil || len(minimized.Violations) == 0 {
		t.Fatal("minimized schedule no longer violates")
	}
	if len(sched) > 5 {
		t.Fatalf("minimized schedule still has %d faults (want <= 5):\n%s",
			len(sched), scheduleText(sched))
	}
	t.Logf("minimized %d faults -> %d:\n%s", len(full.Schedule), len(sched), scheduleText(sched))
}

// TestModelCheckerCleanSweep is the matching negative control: the same
// crash-heavy scenario without the bug must linearize cleanly across a seed
// sweep, proving the checker does not cry wolf on the correct failover
// protocol. Full mode sweeps 32 seeds (the acceptance bar); -short keeps 8.
func TestModelCheckerCleanSweep(t *testing.T) {
	seeds := 32
	if testing.Short() {
		seeds = 8
	}
	base := staleLeaseOptions(100, false)
	base.Duration = 24 * time.Hour
	reps, err := Sweep(base, seeds, 4, nil, Run)
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	for _, rep := range reps {
		requireClean(t, rep)
		if rep.Stats.ModelOps == 0 {
			t.Errorf("seed %d: no metadata operations recorded", rep.Seed)
		}
		if rep.Stats.ModelPartitions == 0 {
			t.Errorf("seed %d: no model partitions checked", rep.Seed)
		}
	}
}

// TestMinimizeProbesDoNotFeedParentRecorder proves both probe-isolation
// properties minimize.go documents: speculative probe runs must not emit
// trace events into the parent run's Recorder (their interleaving is
// nondeterministic), and each probe harness checks its own model.History
// rather than appending to the parent's. The trace a Minimize call leaves
// in its Recorder must therefore be byte-identical to the trace of a single
// plain Run, and the probes must still have performed their own model
// checks.
func TestMinimizeProbesDoNotFeedParentRecorder(t *testing.T) {
	o := staleLeaseOptions(*chaosSeed, true)

	recMin := obs.NewRecorder()
	oMin := o
	oMin.Recorder = recMin
	_, minimized, full, err := MinimizeParallel(oMin, 2)
	if err != nil {
		t.Fatalf("minimize: %v", err)
	}
	if minimized == nil {
		t.Fatal("expected a violating (and thus minimized) run")
	}

	recRun := obs.NewRecorder()
	oRun := o
	oRun.Recorder = recRun
	rep, err := Run(oRun)
	if err != nil {
		t.Fatalf("plain run: %v", err)
	}

	var trMin, trRun bytes.Buffer
	if err := recMin.Tracer().WriteChromeTrace(&trMin); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if err := recRun.Tracer().WriteChromeTrace(&trRun); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	if !bytes.Equal(trMin.Bytes(), trRun.Bytes()) {
		t.Errorf("Minimize's recorder trace differs from a plain run's (%d vs %d bytes): probe runs leaked trace events",
			trMin.Len(), trRun.Len())
	}

	// History isolation: the full run and the standalone run checked the
	// same ops, and the minimized probe checked its own (smaller) history
	// rather than accumulating onto the parent's.
	if full.Stats.ModelOps != rep.Stats.ModelOps {
		t.Errorf("full run checked %d model ops, plain run %d; histories are not isolated",
			full.Stats.ModelOps, rep.Stats.ModelOps)
	}
	if minimized.Stats.ModelOps == 0 {
		t.Error("minimized probe run checked no model ops; probe harness lost its history")
	}
	if minimized.Stats.ModelOps > full.Stats.ModelOps {
		t.Errorf("minimized prefix checked more ops (%d) than the full run (%d); probe history absorbed parent ops",
			minimized.Stats.ModelOps, full.Stats.ModelOps)
	}
}
