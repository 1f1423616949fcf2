package main

// refNominalS is refKernel's CPU time on the reference box (2 vCPUs of a
// shared Xeon host) when the host leaves it alone: the 10th percentile of
// 592 timings, whose median was 0.064 s. Dividing a cell's CPU time by the
// kernel's time just before the cell, then multiplying by refNominalS,
// gives the cell's CPU time at that quiet speed.
const refNominalS = 0.045

// refCPU runs refKernel and returns the CPU seconds it took.
func refCPU() float64 {
	c0 := processCPU()
	refSink += refKernel()
	return processCPU() - c0
}

// refKernel is a fixed piece of work that uses none of the simulator's code,
// shaped like what the simulator spends its host time on: a switch-dispatch
// interpreter loop, map inserts, lookups and deletes, and short-lived heap
// objects for the garbage collector. Its CPU time, taken right before a
// cell, tells how fast the host runs such code at that moment.
func refKernel() uint64 {
	return refInterp() + refMaps() + refAlloc()
}

var refSink uint64

// refInterp runs a small register-machine program: a loop that mixes an
// xorshift state into an accumulator, dispatched one instruction at a time.
func refInterp() uint64 {
	type instr struct{ op, a, b uint8 }
	prog := []instr{
		{0, 1, 13}, // r1 ^= r1 << 13
		{1, 1, 7},  // r1 ^= r1 >> 7
		{0, 1, 17}, // r1 ^= r1 << 17
		{2, 2, 1},  // r2 += r1
		{3, 3, 0},  // r3--
		{4, 3, 0},  // if r3 != 0 goto 0
	}
	r := [4]uint64{0, 88172645463325252, 0, 1_000_000}
	for pc := 0; pc < len(prog); {
		in := prog[pc]
		pc++
		switch in.op {
		case 0:
			r[in.a] ^= r[in.a] << in.b
		case 1:
			r[in.a] ^= r[in.a] >> in.b
		case 2:
			r[in.a] += r[in.b]
		case 3:
			r[in.a]--
		case 4:
			if r[in.a] != 0 {
				pc = 0
			}
		}
	}
	return r[2]
}

// refMaps keeps a map of about 32K entries, the size of a COW region table
// or a cache's block index, and churns it.
func refMaps() uint64 {
	m := make(map[uint64]uint32, 1<<15)
	x := uint64(2463534242)
	var s uint64
	for i := 0; i < 400_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x & (1<<16 - 1)
		if v, ok := m[k]; ok {
			s += uint64(v)
			if x&3 == 0 {
				delete(m, k)
			}
		} else {
			m[k] = uint32(i)
		}
	}
	return s
}

// refAlloc builds and drops short linked lists of small objects, so the
// live heap stays small and the kernel leaves the peak resident set alone.
func refAlloc() uint64 {
	type node struct {
		next *node
		val  [6]uint64
	}
	var s uint64
	for round := 0; round < 200; round++ {
		var head *node
		for i := 0; i < 1024; i++ {
			head = &node{next: head, val: [6]uint64{uint64(i)}}
		}
		for n := head; n != nil; n = n.next {
			s += n.val[0]
		}
	}
	return s
}
