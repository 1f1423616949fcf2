package vm

import (
	"math/rand"
	"testing"
)

// Model-based check of countdown-loop fusion (fuseSpins, dSPIN): random
// programs built around the idiom run side by side on a machine with the
// fused decode and on a reference machine whose dSPIN entries are rewritten
// back to dBEQ, so the reference interprets every iteration one instruction
// at a time. After every Run slice the two must agree on everything the
// rest of the simulator can observe.

// unfuse turns m's decode into the reference: every fused beq becomes a
// plain beq again. It returns how many entries it rewrote.
func unfuse(m *Machine) int {
	n := 0
	for i := range m.dec {
		if m.dec[i].class == dSPIN {
			m.dec[i].class = dBEQ
			n++
		}
	}
	return n
}

// spinCounters are the counter values every program draws its loops from:
// an immediate exit, one and two iterations, a negative counter (which
// counts down through the int64 wrap, far past any budget) and a counter
// far larger than any budget.
var spinCounters = []int64{0, 1, 2, -3, 1 << 40}

// Block shapes the generator strings together.
const (
	blkSpin       = iota // the exact idiom, entered at its beq
	blkEnterAddi         // the idiom, entered by a jump to its addi
	blkEnterJmp          // the idiom, entered by a jump to its jmp
	blkMissAddi2         // addi r, r, -2: not a countdown by one
	blkMissBNE           // bne instead of beq
	blkMissLink          // call (a linked jmp) back to the head
	blkMissSP            // SP as the counter: every addi is SP-checked
	blkMissR0            // r0 as the counter
	blkMissRs1           // addi r, s, -1: the counter is not updated in place
	blkMissRd            // addi s, r, -1: the counter is never written
	blkMissOri           // ori r, r, -1 in place of the addi
	blkMissTarget        // the jmp returns to the addi, not the beq
	blkMissRs2           // beq r, s: the exit test is not against zero
	blkMissFlag          // a beq encoding Rd = SP, which carries dfCheckSP
	blkALU               // straight-line arithmetic
	blkMem               // a store/load pair that touches a page
	numBlocks
)

var blkNames = [numBlocks]string{"spin", "enter-addi", "enter-jmp", "addi-2", "bne",
	"linked-jmp", "sp-counter", "r0-counter", "addi-rs1", "addi-rd", "ori", "jmp-target", "beq-rs2", "beq-flag", "alu", "mem"}

// spinProg is a generated program plus the PCs of every loop head and
// whether that head must fuse.
type spinProg struct {
	text  []Instr
	heads map[int64]bool
	kinds []int
}

// genSpinProg strings 2–7 random blocks together and ends in exit. The
// first loop's counter cycles through spinCounters by seed, so every value
// is exercised; later loops draw from the list at random. Speculative
// programs use checked stores, as shadow code does.
func genSpinProg(r *rand.Rand, seed int, spec bool) *spinProg {
	p := &spinProg{heads: map[int64]bool{}}
	emit := func(ins ...Instr) { p.text = append(p.text, ins...) }
	pc := func() int64 { return int64(len(p.text)) }
	counter := func() int64 {
		if len(p.heads) == 0 {
			return spinCounters[seed%len(spinCounters)]
		}
		return spinCounters[r.Intn(len(spinCounters))]
	}
	st, ld := STW, LDW
	if spec {
		st, ld = STWS, LDWS
	}
	for b, nb := 0, 2+r.Intn(6); b < nb; b++ {
		kind := r.Intn(numBlocks)
		p.kinds = append(p.kinds, kind)
		reg := uint8(5 + r.Intn(15))
		switch kind {
		case blkALU:
			emit(Instr{Op: ADDI, Rd: 21, Rs1: 21, Imm: r.Int63n(100)},
				Instr{Op: MUL, Rd: 22, Rs1: 21, Rs2: 21},
				Instr{Op: XOR, Rd: 23, Rs1: 22, Rs2: reg})
			continue
		case blkMem:
			addr := 8 * r.Int63n(4096/8)
			emit(Instr{Op: MOVI, Rd: 24, Imm: addr},
				Instr{Op: st, Rs1: 24, Rs2: 21},
				Instr{Op: ld, Rd: 25, Rs1: 24})
			continue
		case blkMissSP:
			reg = SP
		case blkMissR0:
			reg = R0
		}
		if kind != blkMissSP {
			emit(Instr{Op: MOVI, Rd: reg, Imm: counter()})
		}
		head := pc()
		switch kind {
		case blkEnterAddi:
			head++
			emit(Instr{Op: JMP, Imm: head + 1})
		case blkEnterJmp:
			head++
			emit(Instr{Op: JMP, Imm: head + 2})
		}
		out := head + 3
		br := Instr{Op: BEQ, Rs1: reg, Rs2: R0, Imm: out}
		dec := Instr{Op: ADDI, Rd: reg, Rs1: reg, Imm: -1}
		back := Instr{Op: JMP, Imm: head}
		switch kind {
		case blkMissAddi2:
			dec.Imm = -2
		case blkMissBNE:
			br.Op = BNE
		case blkMissLink:
			back.Op = CALL
		case blkMissRs1:
			dec.Rs1 = 21
		case blkMissRd:
			dec.Rd = 21
		case blkMissOri:
			dec.Op = ORI
		case blkMissTarget:
			back.Imm = head + 1
		case blkMissRs2:
			br.Rs2 = 21
		case blkMissFlag:
			br.Rd = SP
		}
		emit(br, dec, back)
		p.heads[head] = kind <= blkEnterJmp && reg != R0
	}
	emit(Instr{Op: MOVI, Rd: R1, Imm: 0}, Instr{Op: SYSCALL, Imm: SysExit})
	return p
}

// spinSnap is everything a Run slice leaves observable.
type spinSnap struct {
	used          int64
	stop          StopReason
	regs          [NumRegs]int64
	pc            int64
	state         ThreadState
	instrs        int64
	cycles        int64
	loads, stores int64
	signals       int64
	pages         PageStats
}

func snapRun(m *Machine, th *Thread, budget int64) spinSnap {
	used, stop := m.Run(th, budget)
	return spinSnap{used, stop, th.Regs, th.PC, th.State, th.Instrs, th.Cycles,
		th.Loads, th.Stores, th.Signals, m.Pages()}
}

// spinBudget draws a slice budget: tiny budgets that split single
// iterations (1, 2 and 3 cycles), small odd ones, and slices large enough
// to retire thousands of iterations at once.
func spinBudget(r *rand.Rand) int64 {
	switch r.Intn(6) {
	case 0:
		return 1 + r.Int63n(3)
	case 1:
		return 1 + r.Int63n(12)
	case 2:
		return 1 + r.Int63n(300)
	case 3:
		return 4096
	case 4:
		return 1 + r.Int63n(1<<16)
	}
	return 1 << 17
}

// spinMachines loads p twice under cost: fused, and the unfused reference.
func spinMachines(t *testing.T, p *spinProg, cost CostModel, spec bool) (fused, ref *Machine, ft, rt *Thread) {
	t.Helper()
	cfg := testCfg()
	cfg.Cost = cost
	load := func() (*Machine, *Thread) {
		m, err := NewMachine(prog(p.text), &scriptOS{}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		mode := Normal
		if spec {
			mode = Speculative
		}
		th := m.NewThread("t", mode)
		th.State, th.PC = Ready, 0
		return m, th
	}
	fused, ft = load()
	ref, rt = load()
	want := 0
	for pc, fuse := range p.heads {
		if got := fused.dec[pc].class == dSPIN; got != fuse {
			t.Fatalf("loop head at PC %d: fused = %v, want %v (blocks %v)", pc, got, fuse, kindNames(p.kinds))
		}
		if fuse {
			want++
		}
	}
	if n := unfuse(ref); n != want {
		t.Fatalf("decode fused %d loops, want %d", n, want)
	}
	return fused, ref, ft, rt
}

func kindNames(kinds []int) []string {
	s := make([]string, len(kinds))
	for i, k := range kinds {
		s[i] = blkNames[k]
	}
	return s
}

// TestSpinFusionMatchesReference is the model test: fused and reference
// machines must agree after every slice, under random budget splits, in
// both thread modes and under non-default cost models.
func TestSpinFusionMatchesReference(t *testing.T) {
	const programs = 400
	seen := map[int]int{}
	for seed := 0; seed < programs; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		spec := seed%2 == 1
		p := genSpinProg(r, seed, spec)
		for _, k := range p.kinds {
			seen[k]++
		}
		cost := DefaultCosts()
		if seed%3 != 0 {
			cost.Default = 1 + r.Int63n(4)
			cost.Mul = 1 + r.Int63n(5)
			cost.Syscall = 1 + r.Int63n(400)
			cost.StoreCheck = r.Int63n(30)
		}
		fused, ref, ft, rt := spinMachines(t, p, cost, spec)
		var total int64
		for slice := 0; slice < 300 && total < 1<<18; slice++ {
			budget := spinBudget(r)
			got, want := snapRun(fused, ft, budget), snapRun(ref, rt, budget)
			if got != want {
				t.Fatalf("seed %d (spec %v, cost %+v, blocks %v), slice %d budget %d:\nfused %+v\nref   %+v",
					seed, spec, cost, kindNames(p.kinds), slice, budget, got, want)
			}
			total += got.used
			if got.state != Ready {
				break
			}
		}
	}
	for k := 0; k < numBlocks; k++ {
		if seen[k] == 0 {
			t.Errorf("no program exercised block %q", blkNames[k])
		}
	}
}

// TestSpinFusionZeroCostStaysUnfused: with a zero Default cost an iteration
// would not advance the budget, so the loop must not fuse — and it must
// still run exactly as the plain instructions do.
func TestSpinFusionZeroCostStaysUnfused(t *testing.T) {
	cost := DefaultCosts()
	cost.Default = 0
	for _, n := range []int64{0, 1, 2, 7} {
		p := &spinProg{
			text: []Instr{
				{Op: MOVI, Rd: 10, Imm: n},
				{Op: BEQ, Rs1: 10, Rs2: R0, Imm: 4},
				{Op: ADDI, Rd: 10, Rs1: 10, Imm: -1},
				{Op: JMP, Imm: 1},
				{Op: MOVI, Rd: R1, Imm: 0},
				{Op: SYSCALL, Imm: SysExit},
			},
			heads: map[int64]bool{1: false},
		}
		fused, ref, ft, rt := spinMachines(t, p, cost, false)
		got, want := snapRun(fused, ft, 1000), snapRun(ref, rt, 1000)
		if got != want || got.stop != StopHalted || got.instrs != 4+3*n {
			t.Fatalf("n=%d: fused %+v, ref %+v", n, got, want)
		}
	}
}

// TestSpinFusionCountsIterations pins the arithmetic on one loop directly:
// a counter of 1000 at Default cost 1 retires in one 4096-cycle slice with
// 3 instructions and 3 cycles per iteration, plus the exiting beq.
func TestSpinFusionCountsIterations(t *testing.T) {
	p := exitProg(
		Instr{Op: MOVI, Rd: 10, Imm: 1000},
		Instr{Op: BEQ, Rs1: 10, Rs2: R0, Imm: 4},
		Instr{Op: ADDI, Rd: 10, Rs1: 10, Imm: -1},
		Instr{Op: JMP, Imm: 1},
	)
	m, th, stop := run(t, p, 4096)
	if m.dec[1].class != dSPIN {
		t.Fatal("countdown loop did not fuse")
	}
	want := int64(1 + 3*1000 + 1 + 2)
	if stop != StopHalted || th.Instrs != want || th.Cycles != want-1+300 {
		t.Fatalf("stop %v, instrs %d (want %d), cycles %d", stop, th.Instrs, want, th.Cycles)
	}
	if th.Regs[10] != 0 {
		t.Fatalf("counter = %d, want 0", th.Regs[10])
	}
}
