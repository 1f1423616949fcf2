package sim

import "testing"

// BenchmarkQueueScheduleRun measures the steady-state event-queue cycle:
// one Schedule followed by one pop+run. With the slot arena's free list
// warm, the whole cycle is allocation-free — Schedule recycles a slot
// instead of allocating an Event.
func BenchmarkQueueScheduleRun(b *testing.B) {
	q := NewQueue()
	fn := func() {}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+10, fn)
		q.RunNext()
	}
}

// BenchmarkQueueRunNext isolates the pop: the queue is pre-filled outside
// the timed region, so the loop body is pure heap maintenance and must
// report 0 allocs/op.
func BenchmarkQueueRunNext(b *testing.B) {
	q := NewQueue()
	fn := func() {}
	for i := 0; i < b.N; i++ {
		q.Schedule(Time(i)*3, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.RunNext()
	}
}

// BenchmarkQueueDeepHeap exercises sift paths on a standing 1k-event heap,
// the regime the disk array and thread scheduler keep the queue in. Sift
// comparisons touch only the contiguous value-entry heap — no pointer
// chasing into the arena.
func BenchmarkQueueDeepHeap(b *testing.B) {
	q := NewQueue()
	fn := func() {}
	for i := 0; i < 1024; i++ {
		q.Schedule(Time(i*7%997), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(q.Now()+Time(i%61), fn)
		q.RunNext()
	}
}

// BenchmarkQueueRunTick measures the batched drain: 64 simultaneous events
// scheduled, then popped in one RunTick pass.
func BenchmarkQueueRunTick(b *testing.B) {
	q := NewQueue()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	ticks := b.N/64 + 1
	for t := 0; t < ticks; t++ {
		at := q.Now() + 10
		for j := 0; j < 64; j++ {
			q.Schedule(at, fn)
		}
		for q.RunTick() {
		}
	}
}

// TestRunNextZeroAlloc pins the pop path's allocation count so a future
// refactor (e.g. back to container/heap with boxing) fails loudly rather
// than silently regressing every simulation.
func TestRunNextZeroAlloc(t *testing.T) {
	q := NewQueue()
	fn := func() {}
	for i := 0; i < 512; i++ {
		q.Schedule(Time(i%97), fn)
	}
	avg := testing.AllocsPerRun(256, func() {
		q.RunNext()
	})
	if avg != 0 {
		t.Fatalf("RunNext allocates %.2f objects/op, want 0", avg)
	}
}

// TestScheduleRunSteadyZeroAlloc pins the full steady-state cycle at 0
// allocs/op: once the free list is warm and the heap has reached its
// standing capacity, Schedule must recycle slots rather than allocate.
func TestScheduleRunSteadyZeroAlloc(t *testing.T) {
	q := NewQueue()
	fn := func() {}
	for i := 0; i < 512; i++ { // grow arena + heap to standing capacity
		q.Schedule(Time(i%97), fn)
	}
	for i := 0; i < 512; i++ { // warm the free list
		q.RunNext()
	}
	avg := testing.AllocsPerRun(512, func() {
		q.Schedule(q.Now()+Time(7), fn)
		q.RunNext()
	})
	if avg != 0 {
		t.Fatalf("steady-state Schedule+RunNext allocates %.2f objects/op, want 0", avg)
	}
}

// TestRunTickZeroAlloc pins the batched path: draining a warm queue tick by
// tick must not allocate either, for a small burst per instant and for a
// 64-event burst drained by one RunTick.
func TestRunTickZeroAlloc(t *testing.T) {
	for _, burst := range []int{8, 64} {
		q := NewQueue()
		fn := func() {}
		for i := 0; i < 256; i++ { // establish arena + free-list capacity
			q.Schedule(Time(i%31), fn)
		}
		for q.RunTick() {
		}
		avg := testing.AllocsPerRun(128, func() {
			at := q.Now() + 5
			for j := 0; j < burst; j++ {
				q.Schedule(at, fn)
			}
			q.RunTick()
		})
		if avg != 0 {
			t.Fatalf("steady-state RunTick cycle with %d-event bursts allocates %.2f objects/op, want 0", burst, avg)
		}
		if q.Len() != 0 {
			t.Fatalf("one RunTick left %d of a %d-event burst queued", q.Len(), burst)
		}
	}
}
