package core

import (
	"errors"
	"fmt"
	"strings"

	"spechint/internal/sim"
	"spechint/internal/vm"
)

// maxSlice is a solo run's quantum: it bounds a slice only when no event is
// pending, so elapsed-time accounting stays responsive.
const maxSlice = int64(1) << 40

// smpQuantum bounds a dual-processor scheduling window: the original thread
// runs at most a quantum, then the speculating thread gets the same wall
// window on its own processor. Speculative disk submissions are skewed by
// at most one quantum (~0.4 ms of testbed time).
const smpQuantum = 100_000

// ErrDeadline marks a run aborted by the MaxCycles budget; detect it with
// errors.Is to distinguish a runaway program from a real failure.
var ErrDeadline = errors.New("core: virtual-cycle deadline exceeded")

// Run executes the application to completion and returns the run statistics.
// A solo run is a group of one whose quantum is effectively unbounded, so
// the original thread keeps the CPU until the next event is due.
func (s *System) Run() (*RunStats, error) {
	st, err := RunGroup([]*System{s}, maxSlice, s.cfg.MaxCycles)
	if err != nil {
		return nil, err
	}
	return st[0], nil
}

// RunGroup is the scheduler: it runs procs, Systems sharing one substrate,
// to completion and returns each one's statistics in order. Every
// iteration, in priority order:
//
//  1. dispatch the events due now;
//  2. a dual-processor process's speculating thread spends the window its
//     original thread's last slice opened on the second processor;
//  3. the next Ready original thread, round-robin, gets at most quantum
//     cycles;
//  4. only if no original thread anywhere can run, the next runnable
//     speculating thread, round-robin, gets the idle gap;
//  5. otherwise the clock advances to the next event.
//
// No slice crosses the next pending event. Speculation yields mid-slice the
// moment any original thread in the group wakes, so the paper's strict-
// priority contract holds group-wide. A process is finalized the moment it
// exits, so its Elapsed is its own completion time, and its hint stream is
// closed so its cache share passes to the survivors. The run aborts on a
// watchdog error from any process, on a failed original thread, past
// maxCycles (when positive) with ErrDeadline, and with a diagnostic naming
// each blocked process when the event queue drains.
func RunGroup(procs []*System, quantum, maxCycles int64) ([]*RunStats, error) {
	if len(procs) == 0 {
		return nil, errors.New("core: empty process group")
	}
	clk, tr := procs[0].clk, procs[0].obs
	for _, p := range procs {
		p.peers = procs
	}
	stats := make([]*RunStats, len(procs))
	live, rrOrig, rrSpec := len(procs), 0, 0
	// second is the dual-processor process whose speculating thread still
	// holds window cycles on the second processor.
	second, window := -1, int64(0)
	// retire finalizes process i if it has exited, once any window its
	// last slice opened is spent.
	retire := func(i int) {
		if procs[i].orig.State == vm.Halted && (i != second || window == 0) {
			stats[i] = procs[i].finish()
			live--
		}
	}
	for live > 0 {
		tr.Tick(clk.Now())
		for _, p := range procs {
			if p.watchdogErr != nil {
				return nil, p.watchdogErr
			}
			if p.orig.Err != nil {
				return nil, fmt.Errorf("core: %s: original thread failed: %w", p.name, p.orig.Err)
			}
		}
		if maxCycles > 0 && int64(clk.Now()) > maxCycles {
			return nil, fmt.Errorf("%w: MaxCycles %d", ErrDeadline, maxCycles)
		}

		budget := quantum
		if at, ok := clk.PeekTime(); ok {
			gap := int64(at - clk.Now())
			if gap <= 0 {
				clk.RunTick()
				continue
			}
			budget = min(budget, gap)
		}

		if window > 0 {
			p, used := procs[second], int64(0)
			if p.specRunnable() {
				var err error
				if used, err = p.stepSpec(window, false); err != nil {
					return nil, err
				}
			}
			// A slice can overshoot by its last instruction's cost.
			if window -= used; used == 0 || window < 0 {
				window = 0
			}
			retire(second)
			continue
		}
		if i := pick(procs, &rrOrig, (*System).origReady); i >= 0 {
			// Dual-processor policy: while the original thread computes,
			// its speculating thread runs for the same wall window on the
			// second processor.
			p := procs[i]
			dual := p.cfg.DualProcessor && p.specRunnable()
			if dual {
				budget = min(budget, smpQuantum)
			}
			used, err := p.stepOrig(budget)
			if err != nil {
				return nil, err
			}
			if dual {
				second, window = i, used
			}
			retire(i)
			continue
		}
		if i := pick(procs, &rrSpec, (*System).specRunnable); i >= 0 {
			if _, err := procs[i].stepSpec(budget, true); err != nil {
				return nil, err
			}
			continue
		}
		if !clk.RunTick() {
			return nil, deadlock(procs)
		}
	}
	return stats, nil
}

// pick returns the next live process at or after *rr, round-robin, for
// which ready holds, advancing *rr past it; -1 if there is none.
func pick(procs []*System, rr *int, ready func(*System) bool) int {
	n := len(procs)
	for k := 0; k < n; k++ {
		i := (*rr + k) % n
		if p := procs[i]; p.orig.State != vm.Halted && ready(p) {
			*rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// deadlock reports the event queue draining with processes still blocked,
// carrying each one's own diagnostic.
func deadlock(procs []*System) error {
	var b strings.Builder
	b.WriteString("core: deadlock — event queue drained, no thread runnable")
	for _, p := range procs {
		if p.orig.State != vm.Halted {
			fmt.Fprintf(&b, "\n%v", p.diagnose("blocked at deadlock"))
		}
	}
	return errors.New(b.String())
}

// origReady reports whether the original thread can use the CPU now.
func (s *System) origReady() bool { return s.orig.State == vm.Ready }

// stepOrig runs the original thread for at most budget cycles and advances
// the clock by the cycles it actually used. The budget must not cross the
// next pending event.
func (s *System) stepOrig(budget int64) (used int64, err error) {
	start := s.clk.Now()
	s.sliceStart = start
	used, stop := s.mach.Run(s.orig, budget)
	s.clk.AdvanceTo(start + sim.Time(used))
	s.stats.OrigBusy += used
	if stop == vm.StopError {
		return used, fmt.Errorf("core: %s: %s thread error: %w", s.name, s.orig.Name, s.orig.Err)
	}
	return used, nil
}

// stepSpec gives the speculating thread at most budget cycles, restart-
// protocol work first, then shadow-code execution. With wall set the cycles
// pass on the clock, and the budget must not cross the next pending event.
// Without it they spend a second-processor window that the original
// thread's slice has already passed on the clock; the thread's syscalls
// then happen "now" (see os.go), skewed by at most smpQuantum.
func (s *System) stepSpec(budget int64, wall bool) (used int64, err error) {
	if work, ok := s.restartWork(budget, wall); ok {
		return work, nil
	}
	start := s.clk.Now()
	s.sliceStart = start
	used, stop := s.mach.Run(s.spec, budget)
	if wall {
		s.clk.AdvanceTo(start + sim.Time(used))
	}
	s.stats.SpecBusy += used
	switch stop {
	case vm.StopError:
		return used, fmt.Errorf("core: %s: %s thread error: %w", s.name, s.spec.Name, s.spec.Err)
	case vm.StopFault:
		// Only the speculating thread faults (normal-mode exceptions
		// surface as StopError); it stays parked until the next restart.
		s.trace(EvSignal, "speculation faulted at PC %d", s.spec.PC)
	}
	return used, nil
}

// specRunnable reports whether the speculating thread can use the CPU now.
func (s *System) specRunnable() bool {
	if s.cfg.Mode != ModeSpeculating {
		return false
	}
	if s.clk.Now() < s.disabledUntil {
		return false // §5 cancel throttle in effect
	}
	if s.restartPending || s.restartRemaining > 0 {
		return true // restart work pending
	}
	return s.spec.State == vm.Ready
}

// restartWork performs (a slice of) the restart protocol: cancel outstanding
// hints, clear the copy-on-write map, copy the original thread's stack, load
// its saved registers, and jump to the shadow instruction after the read it
// blocked on (paper §3.2.2). It reports the cycles charged and whether the
// protocol took this turn; a throttle takes it with no cycles. wall says
// the work passes on the clock rather than in a second-processor window.
func (s *System) restartWork(budget int64, wall bool) (int64, bool) {
	start := s.clk.Now()
	if s.restartRemaining == 0 {
		if !s.restartPending {
			return 0, false
		}
		if !s.beginRestart(start) {
			return 0, true // throttled: this turn is consumed
		}
	}

	work := min(s.restartRemaining, budget)
	if wall {
		s.clk.AdvanceTo(start + sim.Time(work))
	}
	s.stats.SpecBusy += work
	s.restartRemaining -= work
	if s.restartRemaining == 0 {
		s.finishRestart()
	}
	return work, true
}

// beginRestart cleans up the current speculation (CANCEL_ALL, hint-log
// truncation, COW and arena reset) and applies the throttles. It returns
// false if a throttle disabled speculation instead.
func (s *System) beginRestart(start sim.Time) bool {
	s.restartPending = false
	s.stats.Restarts++
	s.tipc.CancelAll()
	s.hintLog = s.hintLog[:s.logNext]
	s.spec.Cow.Reset()
	s.mach.ResetSpecBrk()

	// §5 ad-hoc throttle: after CancelThrottle cancellations, disable
	// speculation for a while instead of restarting. The count resets to -1
	// so the restart that re-enables speculation after the window gets a
	// free pass — otherwise a threshold of 1 would disable speculation
	// permanently.
	s.cancelsRecent++
	if s.cfg.CancelThrottle > 0 && s.cancelsRecent >= s.cfg.CancelThrottle {
		s.cancelsRecent = -1
		s.throttle(start, sim.Time(s.cfg.CancelThrottleCycles))
		return false
	}

	// §5 generic limiter: gate restarts on TIP's recent hint accuracy,
	// with exponential backoff while it stays poor.
	if s.cfg.AdaptiveThrottle {
		threshold := s.cfg.AdaptiveThreshold
		if threshold == 0 {
			threshold = 0.2
		}
		if s.tipc.Accuracy() < threshold {
			if s.backoffCycles == 0 {
				s.backoffCycles = s.cfg.AdaptiveBackoff
				if s.backoffCycles == 0 {
					s.backoffCycles = 50_000_000
				}
			} else if s.backoffCycles < 1<<32 {
				s.backoffCycles *= 2
			}
			s.throttle(start, sim.Time(s.backoffCycles))
			return false
		}
		s.backoffCycles = 0 // accuracy recovered: reset the backoff
	}

	liveStack := s.cfg.Machine.MemSize - s.savedRegs[vm.SP]
	s.restartRemaining = s.cfg.RestartBaseCycles + liveStack/8*s.cfg.CopyPer8B
	if s.restartRemaining <= 0 {
		s.restartRemaining = 1
	}
	return true
}

// throttle parks speculation until the window passes, re-armed with the
// freshest saved state.
func (s *System) throttle(start, window sim.Time) {
	s.disabledUntil = start + window
	s.spec.State = vm.Faulted
	s.restartPending = true
	s.trace(EvThrottle, "speculation disabled for %d cycles", window)
}

// finishRestart installs the saved original-thread state into the
// speculating thread and resumes it in shadow code.
func (s *System) finishRestart() {
	specSP := s.mach.CopyStackForSpec(s.savedRegs[vm.SP])
	s.spec.Regs = s.savedRegs
	s.spec.Regs[vm.SP] = specSP
	s.spec.Regs[vm.R1] = s.savedResult // the read's return value
	s.spec.PC = s.savedPC + s.prog.ShadowBase
	s.spec.PendingCycles = 0
	// The descriptor table is part of the original thread's state:
	// speculation starts from a private copy so its opens/closes/seeks
	// stay invisible to normal execution. Speculation resumes *after*
	// the read the original thread blocked on, so if that read has not
	// yet advanced the shared table's offset, advance the copy.
	s.specFDs = s.origFDs.Clone()
	if _, off, errno := s.specFDs.File(s.savedFD); errno == 0 && off == s.savedOff {
		s.specFDs.Advance(s.savedFD, s.savedResult)
	}
	s.spec.State = vm.Ready
	s.trace(EvRestart, "resume at shadow PC %d, result %d", s.spec.PC, s.savedResult)
}

// finish closes out a process the moment it exits. It returns a detached
// copy of the statistics, so holding them keeps no System, VM memory or
// dataset alive, and closes the hint stream so its cache share passes to
// the surviving processes. Tip counters are this process's hint stream;
// Cache and Disk are substrate-wide (identical on a private substrate).
func (s *System) finish() *RunStats {
	if s.owned {
		s.tip.FinishRun()
	}
	st := s.stats
	st.Elapsed = s.clk.Now()
	st.ExitCode = s.orig.ExitCode
	st.OrigInstrs = s.orig.Instrs
	st.DroppedEvents = s.droppedEvents
	// Close the stall-attribution accounting. Compute is what the original
	// thread executed minus the overhead speculation charged to its path;
	// SchedWait is the residual: exactly zero in a solo run without
	// speculation, bounded by speculative-slice instruction granularity with
	// it (see StallBuckets), and the CPU queueing delay under
	// multiprogramming.
	b := &st.Buckets
	b.Compute = st.OrigBusy - b.SpecOverhead
	b.SchedWait = int64(st.Elapsed) - st.OrigBusy - b.HintedStall - b.UnhintedStall - b.FaultStall
	if s.spec != nil {
		st.SpecInstrs = s.spec.Instrs
		st.SpecSignals = s.spec.Signals
	}
	st.Tip = s.tipc.Stats()
	st.Cache = s.tip.Cache().Stats()
	st.Disk = s.arr.Stats()
	st.TipFaults = s.tip.Faults()
	st.Degraded = s.tip.Degraded()
	st.Pages = s.mach.Pages()
	st.Output = s.out.String()

	st.FootprintBytes = st.Pages.Touched*s.cfg.Machine.PageBytes + s.prog.TextBytes()
	if s.spec != nil {
		st.FootprintBytes += int64(s.spec.Cow.PeakRegions() * s.spec.Cow.RegionSize())
	}
	s.tipc.Close()
	return &st
}
