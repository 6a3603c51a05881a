// Package campaign sweeps declarative experiment specs (internal/spec)
// across the existing chaos, traffic, fleet, fidelity, and durability
// engines: a spec file's parameter grid expands into cells, each cell
// compiles into the engine's option struct, runs on the shared worker
// pool, and lands in a byte-deterministic stamped report. Cells are keyed
// by their content hash, so a campaign directory doubles as a result
// cache — re-running an unchanged spec executes nothing and reproduces
// the report byte for byte, while editing one grid axis re-runs exactly
// the affected cells.
package campaign

import (
	"time"

	"ustore/internal/chaos"
	"ustore/internal/spec"
)

// CompileChaos lowers a faults- or traffic-mode spec onto the chaos
// harness's option struct. The mapping is total: every spec field that
// reaches this mode has exactly one Options field, so two specs with
// equal hashes run identical simulations.
func CompileChaos(s *spec.Spec) chaos.Options {
	o := chaos.DefaultOptions(s.Seed, time.Duration(s.Days*float64(24*time.Hour)))
	if s.Mode == "traffic" {
		// Traffic mode replaces the fault schedule entirely.
		o.HostCrashes, o.DiskFaults, o.HubFaults, o.NetFaults, o.Corruptions = false, false, false, false, false
		o.Tenants = true
		o.Storm = s.Traffic.Storm
		o.Protect = s.Traffic.Protect
		return o
	}
	f := s.Faults
	o.HostCrashes = f.HostCrashes
	o.DiskFaults = f.Disks
	o.HubFaults = f.Hubs
	o.NetFaults = f.Net
	o.Corruptions = f.Corruptions
	o.GrayFaults = f.Gray
	o.Mitigation = f.Mitigation
	o.Pairs = f.Pairs
	o.BlocksPerSpace = f.BlocksPerSpace
	o.DisableChecksums = f.NoChecksums
	o.InjectStaleLease = f.StaleLease
	o.InjectQuarantineBlind = f.QuarantineBlind
	if s.Failure.Model == "empirical" {
		o.Empirical = s.EmpiricalModel()
		o.AgeYears = s.Failure.AgeYears
	}
	return o
}

// CompileFleet lowers a fleet-mode spec onto the fleet-scale control
// plane's option struct.
func CompileFleet(s *spec.Spec) chaos.FleetOptions {
	return chaos.FleetOptions{
		Seed:              s.Seed,
		Units:             s.Fleet.Units,
		Shards:            s.Fleet.Shards,
		Clients:           s.Fleet.Clients,
		Volumes:           s.Fleet.Volumes,
		UnitLoss:          s.Fleet.UnitLoss,
		EngineWorkers:     s.Fleet.EngineWorkers,
		ReplicaCrashes:    s.Fleet.Crashes,
		Partitions:        s.Fleet.Partitions,
		SlotMoves:         s.Fleet.SlotMoves,
		FaultWindow:       time.Duration(s.Fleet.FaultWindowSec * float64(time.Second)),
		InjectSkipRedrive: s.Fleet.SkipRedrive,
	}
}
