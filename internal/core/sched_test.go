package core

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"spechint/internal/asm"
	"spechint/internal/sim"
	"spechint/internal/tip"
	"spechint/internal/vm"
)

// TestSchedulerErrors checks every way the scheduler ends a run early, for
// a solo run and for a group of two processes on one substrate.
func TestSchedulerErrors(t *testing.T) {
	fs, names := buildFS(t, 2, 16<<10)
	prog := asm.MustAssemble(seqReaderSrc(names, false))

	// Each shape builds its processes, lets arm interfere with them, and
	// runs them with the given virtual-cycle limit.
	shapes := []struct {
		name string
		run  func(t *testing.T, maxCycles int64, arm func([]*System)) error
	}{
		{"solo", func(t *testing.T, maxCycles int64, arm func([]*System)) error {
			cfg := DefaultConfig(ModeNoHint)
			cfg.MaxCycles = maxCycles
			sys, err := New(cfg, prog, fs)
			if err != nil {
				t.Fatal(err)
			}
			arm([]*System{sys})
			_, err = sys.Run()
			return err
		}},
		{"group", func(t *testing.T, maxCycles int64, arm func([]*System)) error {
			sub, err := NewSubstrate(sim.NewQueue(), TestbedDisk(4), tip.DefaultConfig(), fs)
			if err != nil {
				t.Fatal(err)
			}
			var procs []*System
			for i := 0; i < 2; i++ {
				sys, err := NewOn(sub, DefaultConfig(ModeNoHint), prog, fmt.Sprintf("p%d", i))
				if err != nil {
					t.Fatal(err)
				}
				procs = append(procs, sys)
			}
			arm(procs)
			_, err = RunGroup(procs, 100_000, maxCycles)
			return err
		}},
	}

	var procs []*System
	cases := []struct {
		name      string
		maxCycles int64
		arm       func([]*System)
		check     func(t *testing.T, err error)
	}{
		{
			name: "deadline", maxCycles: 1_000,
			check: func(t *testing.T, err error) {
				if !errors.Is(err, ErrDeadline) {
					t.Errorf("error %v does not wrap ErrDeadline", err)
				}
			},
		},
		{
			// A completion callback records an inconsistency in the last
			// process; the run must stop on it.
			name: "watchdog",
			arm: func(ps []*System) {
				last := ps[len(ps)-1]
				last.clk.After(1_000_000, func() { last.watchdog("injected inconsistency") })
			},
			check: func(t *testing.T, err error) {
				want := procs[len(procs)-1].name + ": injected inconsistency"
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("error %v, want one containing %q", err, want)
				}
			},
		},
		{
			// Every original thread blocks with nothing pending to wake it.
			name: "deadlock",
			arm: func(ps []*System) {
				for _, p := range ps {
					p.orig.State = vm.Blocked
				}
			},
			check: func(t *testing.T, err error) {
				if err == nil || !strings.Contains(err.Error(), "deadlock") {
					t.Fatalf("error %v, want a deadlock diagnostic", err)
				}
				for _, p := range procs {
					if !strings.Contains(err.Error(), "core: "+p.name+": blocked") {
						t.Errorf("deadlock diagnostic does not name %s:\n%v", p.name, err)
					}
				}
			},
		},
	}
	for _, sh := range shapes {
		for _, c := range cases {
			t.Run(sh.name+"/"+c.name, func(t *testing.T) {
				err := sh.run(t, c.maxCycles, func(ps []*System) {
					procs = ps
					if c.arm != nil {
						c.arm(ps)
					}
				})
				c.check(t, err)
			})
		}
	}
}

// TestRunStatsDetached: the statistics a run returns must not keep the
// System alive. A System is reachable from itself (its VM calls back into
// it), and Go never finalizes an object in a cycle, so the finalizer sits
// on the program, which only the System references.
func TestRunStatsDetached(t *testing.T) {
	fs, names := buildFS(t, 2, 16<<10)
	freed := make(chan struct{})
	st := func() *RunStats {
		prog := asm.MustAssemble(seqReaderSrc(names, false))
		runtime.SetFinalizer(prog, func(*vm.Program) { close(freed) })
		sys, err := New(DefaultConfig(ModeNoHint), prog, fs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sys.Run()
		if err != nil {
			t.Fatal(err)
		}
		return st
	}()
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-freed:
			if st.ReadCalls == 0 {
				t.Error("stats lost their content")
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatalf("the System outlived Run while its stats (%d reads) were held", st.ReadCalls)
}
