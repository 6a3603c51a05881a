// Command ustorebench is the repository's benchmark: one program that runs
// three seeded workloads against the simulator, checks their simulated
// outputs, and prints every end-to-end metric by name. A separate traced
// run (--trace 1) prints the per-layer numbers instead.
//
//	ustorebench --workload restore-storm --seed 1 --seconds 30 --trace 0
//
// Workloads (see reasoning.json for why each exists and which layers it
// exercises or bypasses):
//
//   - restore-storm: the protected multi-tenant restore storm on the
//     3-host, 6-disk traffic unit (core.NewCluster +
//     workload.NewTrafficEngine). Read-dominated data plane.
//   - fleet-mixed: a 64-unit, 8-shard fleet on the parallel engine at 2
//     workers, driven by 64 closed-loop routers with an Allocate-dominated
//     Allocate/Lookup/Release mix (fleet.New + fleet.Router). Control plane
//     at scale, no data-plane IO.
//   - fault-soak: the chaos harness (chaos.RunSchedule) over 24 simulated
//     hours with every fault family, gray faults, the mitigation stack,
//     checksums and the scrubber, under a fault schedule the benchmark
//     draws from the seed. The harness boots its own cluster, so boot time
//     counts in run_s on this workload.
//
// An untraced run makes passes over a workload's sub-seeds (derived from
// --seed), repeating setup + timed phase until --seconds have passed and at
// least one full pass is done, and reports medians of the host metrics.
// Simulated metrics are pooled over the first pass; every later repetition
// of a sub-seed must reproduce its digest, and every correctness gate must
// pass. A failed gate counts all of the run's ops as failed.
//
// Profile attribution rule (traced runs): each CPU, heap-allocation and
// block-profile sample is charged to the innermost stack frame whose
// function lives in a ustore/internal/<module> package — the leaf-most
// frame, looking through inlined calls. A sample with no such frame
// (mostly GC, scheduler and runtime background work) is charged to
// "runtime"; a frame in an internal package outside the reported module
// list is charged to "other". All per-layer timing happens from outside
// the program: profiles, the run's obs.Recorder, public counters, and
// microprobes of public layer functions at the workload's own sizes. A
// layer the workload bypasses reports 0.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadDef is a workload's constructor and how many independent
// sub-runs (one per sub-seed) make up one pass. Simulated metrics are
// pooled over a pass, so a run's simulated tail reflects several
// independent instances rather than one seed's luck.
type workloadDef struct {
	mk   func(seed int64) instance
	pool int
}

// workloads maps each workload name to its definition.
var workloads = map[string]workloadDef{
	"restore-storm": {newStormInstance, 4},
	"fleet-mixed":   {newFleetInstance, 12},
	"fault-soak":    {newSoakInstance, 8},
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run: restore-storm, fleet-mixed or fault-soak")
		seed    = flag.Int64("seed", 1, "workload seed (every input is generated from it)")
		seconds = flag.Int("seconds", 30, "how long to measure, in host seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing per-layer metrics; 0 = end-to-end metrics")
	)
	flag.Parse()
	def, ok := workloads[*name]
	if !ok {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "ustorebench: unknown --workload %q (want one of %v)\n", *name, names)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "ustorebench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var (
		res *result
		err error
	)
	if *trace == 1 {
		res, err = tracedRun(*name, def.mk, *seed)
	} else {
		res, err = timedRun(*name, def, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustorebench: %s seed %d: %v\n", *name, *seed, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ustorebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
