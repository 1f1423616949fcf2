package vm

import (
	"fmt"
	"testing"
)

// stepProg is a tight ALU/load/store/branch loop: r10 counts down from Imm,
// each iteration does arithmetic plus a word store/load pair — the mix the
// interpreter spends its time on under the benchmark applications.
func stepProg(iters int64) *Program {
	return prog([]Instr{
		{Op: MOVI, Rd: 10, Imm: iters},
		{Op: MOVI, Rd: 11, Imm: 512}, // buffer base in the data segment
		// loop:
		{Op: ADDI, Rd: 12, Rs1: 12, Imm: 3},
		{Op: MUL, Rd: 13, Rs1: 12, Rs2: 12},
		{Op: STW, Rs1: 11, Rs2: 13, Imm: 0},
		{Op: LDW, Rd: 14, Rs1: 11, Imm: 0},
		{Op: XOR, Rd: 12, Rs1: 12, Rs2: 14},
		{Op: ADDI, Rd: 10, Rs1: 10, Imm: -1},
		{Op: BNE, Rs1: 10, Rs2: R0, Imm: 2},
		{Op: JMP, Imm: 9}, // spin here when done; the budget stops the run
	})
}

// BenchmarkVMStep measures the interpreter's per-instruction cost on the
// hot ALU/memory loop. Each b.N step executes one instruction (budget-bound
// slices of 4096 cycles ≈ 4096 instructions at Default cost 1); the loop
// must report 0 allocs/op — the step loop has no closures and no per-slice
// heap state.
func BenchmarkVMStep(b *testing.B) {
	m, err := NewMachine(stepProg(1<<62), &scriptOS{}, testCfg())
	if err != nil {
		b.Fatal(err)
	}
	th := m.NewThread("bench", Normal)
	b.ReportAllocs()
	b.ResetTimer()
	var left = int64(b.N)
	for left > 0 {
		slice := int64(4096)
		if slice > left {
			slice = left
		}
		used, stop := m.Run(th, slice)
		if stop != StopBudget {
			b.Fatalf("stop = %v (err %v)", stop, th.Err)
		}
		left -= used
	}
}

// BenchmarkVMRunSlice measures whole Run invocations with a short budget,
// the scheduler's calling pattern: entry/exit overhead must also stay
// allocation-free now that setReg/finish are methods rather than closures.
func BenchmarkVMRunSlice(b *testing.B) {
	m, err := NewMachine(stepProg(1<<62), &scriptOS{}, testCfg())
	if err != nil {
		b.Fatal(err)
	}
	th := m.NewThread("bench", Normal)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, stop := m.Run(th, 64); stop != StopBudget {
			b.Fatalf("stop = %v (err %v)", stop, th.Err)
		}
	}
}

// thinkProg is the spin loop trace.Source emits for a think record, with
// the counter reloaded whenever it runs out: each pass spins iters
// iterations of 3 cycles.
func thinkProg(iters int64) *Program {
	return prog([]Instr{
		{Op: MOVI, Rd: 6, Imm: iters},
		{Op: BEQ, Rs1: 6, Rs2: R0, Imm: 0}, // spin: a spent record starts the next
		{Op: ADDI, Rd: 6, Rs1: 6, Imm: -1},
		{Op: JMP, Imm: 1},
	})
}

// BenchmarkVMThink runs one think record per op in 4096-cycle slices, the
// way the scheduler runs a replay program. The countdown loop is fused at
// decode, so a slice costs the same host time whether the record spins 10^6
// or 10^8 cycles (compare the ns/slice metric), and the loop reports 0
// allocs/op.
func BenchmarkVMThink(b *testing.B) {
	for _, cycles := range []int64{1e6, 1e8} {
		b.Run(fmt.Sprintf("cycles=%.0e", float64(cycles)), func(b *testing.B) {
			m, err := NewMachine(thinkProg(cycles/3), &scriptOS{}, testCfg())
			if err != nil {
				b.Fatal(err)
			}
			th := m.NewThread("think", Normal)
			slices := (cycles + 4095) / 4096
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for s := int64(0); s < slices; s++ {
					if _, stop := m.Run(th, 4096); stop != StopBudget {
						b.Fatalf("stop = %v (err %v)", stop, th.Err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*slices), "ns/slice")
		})
	}
}

// TestRunZeroAlloc pins Run's allocation count at zero, on the ALU/memory
// loop and on a fused spin loop, so a future change that reintroduces
// per-slice closures (or lets a local escape) fails this test instead of
// taxing every simulated instruction slice.
func TestRunZeroAlloc(t *testing.T) {
	for name, p := range map[string]*Program{"step": stepProg(1 << 62), "think": thinkProg(1 << 40)} {
		m, err := NewMachine(p, &scriptOS{}, testCfg())
		if err != nil {
			t.Fatal(err)
		}
		th := m.NewThread("bench", Normal)
		avg := testing.AllocsPerRun(200, func() {
			if _, stop := m.Run(th, 1024); stop != StopBudget {
				t.Fatalf("%s: stop = %v (err %v)", name, stop, th.Err)
			}
		})
		if avg != 0 {
			t.Fatalf("%s: Run allocates %.2f objects/slice, want 0", name, avg)
		}
	}
}
