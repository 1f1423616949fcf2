package vm_test

import (
	"testing"

	"spechint/internal/asm"
	"spechint/internal/spechint"
	"spechint/internal/trace"
	"spechint/internal/vm"
)

// nopOS never runs: these machines are only decoded, not executed.
type nopOS struct{}

func (nopOS) Syscall(*vm.Machine, *vm.Thread, int64) vm.SysControl { return vm.SysFault }

// TestTraceThinkLoopFuses pins that the spin loop trace.Source emits for
// think records decodes as a fused countdown loop in both the original and
// the shadow text after the SpecHint transform. Without the fusion, replay
// runs interpret every think cycle one instruction at a time; no golden
// file would notice, since cycle and instruction counts are the same.
func TestTraceThinkLoopFuses(t *testing.T) {
	tr := &trace.Trace{Recs: []trace.Rec{
		{Kind: trace.KindOpen, Path: "f"},
		{Kind: trace.KindRead, Off: 0, Len: 4096},
		{Kind: trace.KindThink, Cycles: 1 << 20},
		{Kind: trace.KindClose},
	}}
	for _, manual := range []bool{false, true} {
		p, err := asm.Assemble(trace.Source(tr, manual))
		if err != nil {
			t.Fatal(err)
		}
		sp, _, err := spechint.Transform(p, spechint.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		m, err := vm.NewMachine(sp, nopOS{}, vm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		pc, ok := sp.Symbols["spin"]
		if !ok {
			t.Fatal("replay program has no spin label")
		}
		if !vm.FusedSpin(m, pc) {
			t.Errorf("manual=%v: original-text spin loop at PC %d is not fused", manual, pc)
		}
		if shadow := spechint.ShadowPC(sp, pc); !vm.FusedSpin(m, shadow) {
			t.Errorf("manual=%v: shadow-text spin loop at PC %d is not fused", manual, shadow)
		}
	}
}
