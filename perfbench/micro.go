package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"spechint/internal/cache"
	"spechint/internal/core"
	"spechint/internal/cow"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/sim"
	"spechint/internal/tip"
	"spechint/internal/vm"
)

// The layer microbenchmarks. Each drives one layer through its public API
// in the shape the workload that stresses it uses, and reports host ns and
// heap allocations per operation; each predicts the matching *.cpu_pct.
var micros = []struct {
	name string
	fn   func() (ops int64, run func() error, err error)
}{
	{"sim.event", microEvent},
	{"vm.instr", microVM},
	{"cow.store_byte", microCOW},
	{"cache.acquire_full", microCache},
	{"tip.hinted_block", microTIP},
}

// runMicros returns ns/op and allocs/op for every microbenchmark.
func runMicros() ([]metric, error) {
	var out []metric
	for _, m := range micros {
		ops, run, err := m.fn()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", m.name, err)
		}
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		runErr := run()
		d := time.Since(start)
		runtime.ReadMemStats(&after)
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", m.name, runErr)
		}
		out = append(out,
			metric{m.name + "_ns", float64(d.Nanoseconds()) / float64(ops), "ns"},
			metric{m.name + "_allocs", float64(after.Mallocs-before.Mallocs) / float64(ops), "allocs/op"})
	}
	return out, nil
}

// microEvent: Schedule + RunNext over a standing heap of 512 events, the
// depth a busy disk array and scheduler keep the queue at.
func microEvent() (int64, func() error, error) {
	const standing, ops = 512, 2_000_000
	q := sim.NewQueue()
	fn := func() {}
	for i := 0; i < standing; i++ {
		q.Schedule(sim.Time(i*13%509), fn)
	}
	return ops, func() error {
		for i := 0; i < ops; i++ {
			q.Schedule(q.Now()+sim.Time(i%61+1), fn)
			q.RunNext()
		}
		return nil
	}, nil
}

// noSyscalls refuses every syscall; the VM microbenchmark makes none.
type noSyscalls struct{}

func (noSyscalls) Syscall(*vm.Machine, *vm.Thread, int64) vm.SysControl { return vm.SysFault }

// microVM: Machine.Run in 4096-cycle budget slices over an ALU, load,
// store and branch loop; one op is one instruction.
func microVM() (int64, func() error, error) {
	prog := &vm.Program{
		Text: []vm.Instr{
			{Op: vm.MOVI, Rd: 10, Imm: 1 << 62},
			{Op: vm.MOVI, Rd: 11, Imm: 512},
			{Op: vm.ADDI, Rd: 12, Rs1: 12, Imm: 3},
			{Op: vm.MUL, Rd: 13, Rs1: 12, Rs2: 12},
			{Op: vm.STW, Rs1: 11, Rs2: 13, Imm: 0},
			{Op: vm.LDW, Rd: 14, Rs1: 11, Imm: 0},
			{Op: vm.XOR, Rd: 12, Rs1: 12, Rs2: 14},
			{Op: vm.ADDI, Rd: 10, Rs1: 10, Imm: -1},
			{Op: vm.BNE, Rs1: 10, Rs2: vm.R0, Imm: 2},
			{Op: vm.JMP, Imm: 9},
		},
		Data:     make([]byte, 1024),
		DataSize: 1024,
	}
	m, err := vm.NewMachine(prog, noSyscalls{}, vm.DefaultConfig())
	if err != nil {
		return 0, nil, err
	}
	th := m.NewThread("micro", vm.Normal)
	const slices = 3000
	run := func() error {
		for i := 0; i < slices; i++ {
			if _, stop := m.Run(th, 4096); stop != vm.StopBudget {
				return fmt.Errorf("machine stopped: %v", stop)
			}
		}
		return nil
	}
	// The loop's instructions per slice are fixed, so a first, untimed
	// batch counts the ops of the timed one.
	before := th.Instrs
	if err := run(); err != nil {
		return 0, nil, err
	}
	return th.Instrs - before, run, nil
}

// microCOW: StoreByte across fresh 1 KB regions, as a speculative read's
// 8 KB buffer copy does; the map is reset after every buffer, as a
// speculation restart resets it.
func microCOW() (int64, func() error, error) {
	const buf, buffers = 8192, 600
	mem := make([]byte, 1<<20)
	m := cow.New(1024)
	return buf * buffers, func() error {
		for b := 0; b < buffers; b++ {
			base := int64(b%64) * buf
			for i := int64(0); i < buf; i++ {
				m.StoreByte(mem, base+i, byte(i))
			}
			m.Reset()
		}
		return nil
	}, nil
}

// microCache: AcquireFor into a full 12 MB cache whose blocks are four
// owners' completed hinted prefetches, each owner at its partition cap, so
// every acquire reclaims the owner's furthest hinted block.
func microCache() (int64, func() error, error) {
	const owners, ops = 4, 20_000
	capacity := tip.DefaultConfig().CacheBlocks
	c := cache.New(capacity)
	rng := rand.New(rand.NewSource(1))
	const maxDist = 4096
	lb := int64(0)
	for o := 0; o < owners; o++ {
		c.SetPartition(o, capacity/owners)
	}
	for i := 0; i < capacity; i++ {
		c.AcquireFor(i%owners, lb, cache.OriginHint, int64(rng.Intn(maxDist)))
		c.Complete(lb)
		lb++
	}
	return ops, func() error {
		for i := 0; i < ops; i++ {
			if b := c.AcquireFor(i%owners, lb, cache.OriginHint, int64(rng.Intn(maxDist))); b != nil {
				c.Complete(lb)
			}
			lb++
		}
		return nil
	}, nil
}

// microTIP: one hinted block through a Manager on the testbed's four-disk
// array, with the hint stream kept one default horizon ahead of the reads:
// each op hints the block a horizon out, then reads the next block and runs
// the clock until the read completes.
func microTIP() (int64, func() error, error) {
	const bs = 8192
	cfg := tip.DefaultConfig()
	horizon := int64(cfg.Horizon)
	const ops = 3000
	clk := sim.NewQueue()
	arr, err := disk.New(clk, core.TestbedDisk(4))
	if err != nil {
		return 0, nil, err
	}
	fs := fsim.New(bs)
	f, err := fs.Create("micro.dat", make([]byte, (ops+horizon)*bs))
	if err != nil {
		return 0, nil, err
	}
	m, err := tip.New(clk, arr, fs, cfg)
	if err != nil {
		return 0, nil, err
	}
	for i := int64(0); i < horizon; i++ {
		m.HintSeg(f, i*bs, bs)
	}
	return ops, func() error {
		var readErr error
		for i := int64(0); i < ops; i++ {
			m.HintSeg(f, (i+horizon)*bs, bs)
			done := false
			if m.Read(f, i*bs, bs, true, func(err error) {
				done = true
				readErr = err
			}) {
				done = true
			}
			for !done && clk.RunNext() {
			}
			if readErr != nil || !done {
				return fmt.Errorf("read of block %d: done %v, err %v", i, done, readErr)
			}
		}
		return nil
	}, nil
}
