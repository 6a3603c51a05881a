package main

import (
	"fmt"
	"net"
	"runtime"
	"sort"
	"sync"
	"time"

	"ustore/internal/block"
	"ustore/internal/disk"
	"ustore/internal/fleet"
	"ustore/internal/placement"
	"ustore/internal/policy"
	"ustore/internal/workload"
)

// Microprobes time public layer functions at a workload's own sizes. Only
// the layers a workload exercises are probed; the rest stay 0.

// probeSizes is the dominant data-plane IO size per workload: 4 MiB batch
// recalls dominate the storm's bytes; the soak reads and writes whole
// 64 KiB checksum blocks.
var probeSizes = map[string]int{
	"restore-storm": 4 << 20,
	"fault-soak":    block.ChecksumBlockSize,
}

func runProbes(name string, l layers) error {
	if size, ok := probeSizes[name]; ok {
		if err := dataPlaneProbes(l, size); err != nil {
			return err
		}
	}
	switch name {
	case "restore-storm":
		l.set("policy.submit_ns", admissionProbe())
	case "fleet-mixed":
		ns, allocs := spreadProbe()
		l.set("placement.spread_ns", ns)
		l.set("placement.spread_allocs", allocs)
	}
	return nil
}

// timeOp returns the median ns/op of fn over five rounds of about 50ms.
func timeOp(fn func()) float64 {
	fn() // warm caches and lazy state
	var rounds []float64
	for r := 0; r < 5; r++ {
		n := 0
		start := time.Now()
		for time.Since(start) < 50*time.Millisecond {
			fn()
			n++
		}
		rounds = append(rounds, float64(time.Since(start).Nanoseconds())/float64(n))
	}
	return median(rounds)
}

// allocsPerOp counts heap allocations per call of fn.
func allocsPerOp(fn func(), n int) float64 {
	fn()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// sink keeps probe results alive so calls are not optimized away.
var sink []byte

// dataPlaneProbes times the disk store's read paths and the block codec at
// size, and the block protocol over one loopback TCP connection.
func dataPlaneProbes(l layers, size int) error {
	holes := disk.NewStore()
	l.set("disk.readat_hole_ns", timeOp(func() { sink = holes.ReadAt(0, size) }))
	written := disk.NewStore()
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	written.WriteAt(0, payload)
	l.set("disk.readat_written_ns", timeOp(func() { sink = written.ReadAt(0, size) }))

	msg := &block.Msg{Type: block.MsgReadResp, Tag: 7, Data: payload}
	frame := msg.Encode()
	l.set("block.encode_bytes", float64(len(frame)))
	l.set("block.encode_ns", timeOp(func() { sink = msg.Encode() }))
	var decodeErr error
	l.set("block.decode_ns", timeOp(func() {
		m, _, err := block.Decode(frame)
		if err != nil {
			decodeErr = err
			return
		}
		sink = m.Data
	}))
	if decodeErr != nil {
		return fmt.Errorf("block decode probe: %w", decodeErr)
	}
	mbs, err := tcpReadProbe(size)
	if err != nil {
		return fmt.Errorf("block tcp probe: %w", err)
	}
	l.set("block.tcp_read_mb_s", mbs)
	return nil
}

// tcpReadProbe serves a memory volume with block.ServeConn over a loopback
// TCP connection and reads size bytes per round trip through a
// block.Client for about 200ms.
func tcpReadProbe(size int) (float64, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	vols := map[string]block.Volume{"probe": block.NewMemVolume(int64(size))}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		_ = block.ServeConn(conn, vols) // ends with the client's close
	}()
	defer wg.Wait()
	defer ln.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return 0, err
	}
	cl := block.NewClient(conn)
	defer cl.Close()
	if _, err := cl.Login("probe"); err != nil {
		return 0, err
	}
	if _, err := cl.Read("probe", 0, size); err != nil {
		return 0, err
	}
	var bytes int64
	start := time.Now()
	for time.Since(start) < 200*time.Millisecond {
		data, err := cl.Read("probe", 0, size)
		if err != nil {
			return 0, err
		}
		bytes += int64(len(data))
	}
	return float64(bytes) / (1 << 20) / time.Since(start).Seconds(), nil
}

// admissionProbe times one Submit that is granted immediately plus its
// Release, over the storm's admission classes.
func admissionProbe() float64 {
	pc := stormOptions(1).ProtectionConfig()
	a := policy.NewAdmission(pc.Classes, pc.SlotsPerDisk)
	a.SetReady(0, "d0", true)
	grant := func() {}
	shed := func(policy.ShedReason) {}
	return timeOp(func() {
		a.Submit(0, workload.ClassPremium, "d0", grant, shed)
		a.Release(0, "d0")
	})
}

// spreadProbe times placement.Spread choosing three unit-disjoint disks
// over the fleet-mixed topology's 4096 disks, and counts its allocations.
func spreadProbe() (ns, allocs float64) {
	f := fleet.New(fleet.Config{Units: mixUnits, Shards: mixShards, Seed: 1})
	ids := make([]string, 0, len(f.Topo.Disks))
	for id := range f.Topo.Disks {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	views := make([]placement.DiskView, 0, len(ids))
	budget := map[string]int{}
	for _, id := range ids {
		d := f.Topo.Disks[id]
		views = append(views, placement.DiskView{ID: id, Host: d.Loc.Host, Free: d.Capacity, Loc: d.Loc})
		budget[d.Loc.Domain(placement.LevelUnit)] = f.Topo.UnitByID[d.Loc.Unit].MaxSpinning
	}
	opts := placement.SpreadOptions{Level: placement.LevelUnit, SpinBudget: budget}
	var picked int
	call := func() { picked += len(placement.Spread(views, 3, opts).Disks) }
	return timeOp(call), allocsPerOp(call, 50)
}
