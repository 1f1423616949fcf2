// Package tip implements the informed prefetching and caching manager from
// Patterson's TIP, as used by the SpecHint paper: applications disclose
// their future reads as a sequence of hints (Table 2's TIPIO_SEG /
// TIPIO_FD_SEG / TIPIO_CANCEL_ALL) and TIP converts them into prefetch I/O,
// balancing prefetch depth against cache pressure with a simplified
// cost-benefit rule.
//
// TIP is a multi-process substrate: each process holds a Client whose hint
// queue, accuracy estimate and read-ahead state are private, so one process's
// TIPIO_CANCEL_ALL or bad hints cannot cancel or discount another's. The
// Manager arbitrates the shared cache and disk array across clients,
// partitioning hinted buffers by each client's recent accuracy. Single-process
// callers may use the Manager-level wrappers, which lazily create a default
// client.
//
// Unhinted read calls invoke the operating system's sequential read-ahead
// policy, which prefetches approximately as many blocks as have been read
// sequentially, up to 64 — aggressive enough to waste most of its prefetches
// on random-access workloads like XDataSlice, as the paper's Table 5 shows.
package tip

import (
	"errors"
	"fmt"

	"spechint/internal/cache"
	"spechint/internal/disk"
	"spechint/internal/fsim"
	"spechint/internal/obs"
	"spechint/internal/sim"
)

// Config tunes the manager.
type Config struct {
	CacheBlocks int // file cache capacity in blocks

	// Horizon is the maximum prefetch depth, in blocks, down the hinted
	// sequence. TIP derived this bound from its system model; here it is a
	// parameter, scaled down by observed hint accuracy.
	Horizon int

	// MinHorizon floors the accuracy-scaled horizon so that a burst of bad
	// hints cannot disable prefetching permanently.
	MinHorizon int

	// ReadaheadMax caps the sequential read-ahead policy (64 blocks in
	// Digital UNIX).
	ReadaheadMax int

	// MaxDepthPerDisk bounds prefetches outstanding (queued + in service)
	// at each disk. This is the queue-side half of TIP's cost-benefit rule:
	// deep prefetch queues make demand reads wait behind prefetches whose
	// buffers they need (a non-preemptible request cannot be jumped even by
	// a higher-priority demand for the same block). Zero means unbounded.
	MaxDepthPerDisk int

	// RADepthPerDisk bounds outstanding sequential read-ahead prefetches per
	// disk. It is deliberately looser than MaxDepthPerDisk: the read-ahead
	// policy predates TIP's cost-benefit control and is "entirely too
	// aggressive" for nonsequential workloads (paper §4.4). Zero means
	// unbounded.
	RADepthPerDisk int

	// MaxHintSegs caps each client's outstanding hint queue; hints beyond
	// the cap are dropped (TIP's hint buffers were finite). Runaway
	// speculation can otherwise disclose unbounded garbage. Zero means
	// unbounded.
	MaxHintSegs int

	// IgnoreHints makes hint calls no-ops (the paper's Figure 4
	// configuration): every read is treated as unhinted.
	IgnoreHints bool

	// MaxFetchRetries bounds how often a *prefetch* whose disk request
	// failed transiently is retried before its block is demoted (dropped
	// from the hinted sequence so the prefetcher does not wedge). Demand
	// fetches retry until they succeed or their disk dies — stalling the
	// application on a transient error is never acceptable.
	MaxFetchRetries int

	// RetryBaseCycles is the first retry backoff in virtual cycles; each
	// subsequent retry of the same block doubles it, capped at
	// RetryCapCycles. Zero selects the defaults (500k base, 16M cap:
	// ~2 ms to ~70 ms of testbed time).
	RetryBaseCycles int64
	RetryCapCycles  int64
}

// DefaultConfig mirrors the testbed: 12 MB cache of 8 KB blocks.
func DefaultConfig() Config {
	return Config{
		CacheBlocks:     12 << 20 / 8192,
		Horizon:         256,
		MinHorizon:      16,
		ReadaheadMax:    64,
		MaxDepthPerDisk: 8,
		RADepthPerDisk:  8,
		MaxHintSegs:     1 << 16,
		MaxFetchRetries: 4,
	}
}

// Validate reports a configuration error, if any.
func (c Config) Validate() error {
	switch {
	case c.CacheBlocks <= 0:
		return fmt.Errorf("tip: CacheBlocks = %d, want > 0", c.CacheBlocks)
	case c.Horizon <= 0:
		return fmt.Errorf("tip: Horizon = %d, want > 0", c.Horizon)
	case c.MinHorizon <= 0 || c.MinHorizon > c.Horizon:
		return fmt.Errorf("tip: MinHorizon = %d, want in [1, Horizon]", c.MinHorizon)
	case c.ReadaheadMax < 0:
		return fmt.Errorf("tip: ReadaheadMax = %d, want >= 0", c.ReadaheadMax)
	case c.MaxDepthPerDisk < 0 || c.RADepthPerDisk < 0 || c.MaxHintSegs < 0:
		return fmt.Errorf("tip: negative MaxDepthPerDisk, RADepthPerDisk or MaxHintSegs")
	case c.MaxFetchRetries < 0 || c.RetryBaseCycles < 0 || c.RetryCapCycles < 0:
		return fmt.Errorf("tip: negative MaxFetchRetries, RetryBaseCycles or RetryCapCycles")
	}
	return nil
}

// Retry backoff defaults, in cycles (~2 ms and ~70 ms of testbed time).
const (
	defaultRetryBase = 500_000
	defaultRetryCap  = 16_000_000
)

// retryBackoff returns the capped exponential backoff before retry attempt
// (1-based) of a failed fetch.
func (c Config) retryBackoff(attempt int) sim.Time {
	base, lim := c.RetryBaseCycles, c.RetryCapCycles
	if base == 0 {
		base = defaultRetryBase
	}
	if lim == 0 {
		lim = defaultRetryCap
	}
	shift := attempt - 1
	if shift > 30 {
		shift = 30
	}
	bo := base << uint(shift)
	if bo > lim {
		bo = lim
	}
	return sim.Time(bo)
}

// FaultCounters aggregates the manager's degradation activity: what the
// fault-injection subsystem caused and how TIP absorbed it. They are
// substrate-wide (faults hit the shared array, not one hint stream).
type FaultCounters struct {
	FetchErrors   int64 // disk completions that returned an error
	FetchRetries  int64 // failed fetches re-submitted after backoff
	DemotedBlocks int64 // prefetched blocks dropped after repeated failures
	DeadSkips     int64 // hinted blocks never prefetched: their disk is dead
	FailedDemand  int64 // demand fetches surfaced to the reader as an error
}

// Stats aggregates the hinting and prefetching activity of one client (or,
// via Manager.Stats, of every client); it is the source for the paper's
// Tables 4 and 5.
type Stats struct {
	// Demand read activity (explicit file calls only).
	ReadCalls  int64
	ReadBlocks int64
	ReadBytes  int64
	// Subset of the above that arrived hinted.
	HintedReadCalls  int64
	HintedReadBlocks int64
	HintedReadBytes  int64

	// Hint activity.
	HintCalls     int64
	HintBlocks    int64
	HintBytes     int64
	CancelCalls   int64
	CancelledSegs int64
	DroppedHints  int64 // hint calls dropped at the MaxHintSegs cap
	MatchedCalls  int64
	MatchedBlocks int64
	MatchedBytes  int64
	BypassedSegs  int64

	// Prefetch activity.
	HintPrefetches int64 // blocks fetched because of hints
	RAPrefetches   int64 // blocks fetched by sequential read-ahead
}

// add accumulates o into s (for cross-client aggregation).
func (s *Stats) add(o Stats) {
	s.ReadCalls += o.ReadCalls
	s.ReadBlocks += o.ReadBlocks
	s.ReadBytes += o.ReadBytes
	s.HintedReadCalls += o.HintedReadCalls
	s.HintedReadBlocks += o.HintedReadBlocks
	s.HintedReadBytes += o.HintedReadBytes
	s.HintCalls += o.HintCalls
	s.HintBlocks += o.HintBlocks
	s.HintBytes += o.HintBytes
	s.CancelCalls += o.CancelCalls
	s.CancelledSegs += o.CancelledSegs
	s.DroppedHints += o.DroppedHints
	s.MatchedCalls += o.MatchedCalls
	s.MatchedBlocks += o.MatchedBlocks
	s.MatchedBytes += o.MatchedBytes
	s.BypassedSegs += o.BypassedSegs
	s.HintPrefetches += o.HintPrefetches
	s.RAPrefetches += o.RAPrefetches
}

// InaccurateCalls returns the number of hint calls that never matched a
// demand read (valid after FinishRun).
func (s Stats) InaccurateCalls() int64 { return s.HintCalls - s.MatchedCalls }

// InaccurateBlocks returns hinted blocks that never matched a demand read.
func (s Stats) InaccurateBlocks() int64 { return s.HintBlocks - s.MatchedBlocks }

// InaccurateBytes returns hinted bytes that never matched a demand read.
func (s Stats) InaccurateBytes() int64 { return s.HintBytes - s.MatchedBytes }

// PrefetchedBlocks returns the total blocks fetched speculatively.
func (s Stats) PrefetchedBlocks() int64 { return s.HintPrefetches + s.RAPrefetches }

// segment is one hinted (file, offset, length) from a TIPIO_SEG call.
// Reads consume segments progressively: a manual hint may disclose a whole
// file that the application then reads in many small calls, while a
// speculative hint matches exactly one read call.
type segment struct {
	file       *fsim.File
	off, n     int64
	firstBlock int64   // file block index of blocks[0]
	blocks     []int64 // logical block numbers
	consumed   int64   // high-water mark of consumed bytes from off
	cancelled  bool
	complete   bool

	// conf is the static confidence behind this hint, in (0, 1]; zero means
	// "no static evidence" (dynamically discovered hints) and leaves the
	// depth bound untouched. Statically synthesized hints carry their
	// analysis confidence here, and the pump scales this segment's prefetch
	// depth by it: proved sites earn the full horizon, speculative ones a
	// shallow bound.
	conf float64
}

// dataEnd returns the end of the segment clamped to the file.
func (s *segment) dataEnd() int64 {
	end := s.off + s.n
	if sz := s.file.Size(); end > sz {
		end = sz
	}
	return end
}

// consumedBlocks returns how many of the segment's blocks are fully consumed.
func (s *segment) consumedBlocks(blockSize int64) int64 {
	if s.consumed <= 0 {
		return 0
	}
	cb := (s.off+s.consumed)/blockSize - s.firstBlock
	if cb < 0 {
		cb = 0
	}
	if cb > int64(len(s.blocks)) {
		cb = int64(len(s.blocks))
	}
	return cb
}

// raState tracks the sequential read-ahead heuristic for one file.
type raState struct {
	nextByte  int64 // where a sequential read would continue
	runBlocks int64 // length of the current sequential run, in blocks
}

// Manager is the informed prefetching and caching manager: the shared cache,
// the shared disk queues, and the per-client arbitration between them.
type Manager struct {
	clk   *sim.Queue
	arr   *disk.Array
	fs    *fsim.FS
	cache *cache.Cache
	cfg   Config

	clients []*Client // indexed by client id
	defc    *Client   // lazy default client behind the Manager-level wrappers

	// Client-slot recycling. A service workload (internal/cluster) opens and
	// closes a hint stream per client session; without reuse the clients
	// slice — which every partition recompute walks — would grow with the
	// total number of sessions ever served instead of the concurrent peak.
	// free holds closed ids available to NewClient; retired accumulates the
	// stats of clients whose slot has been handed out again, so Stats stays
	// a whole-lifetime aggregate.
	free    []int
	retired Stats

	// pendingDemand holds demand fetches that could not obtain a buffer
	// (everything in transit); retried on every completion.
	pendingDemand []func() bool

	prefDepth map[int]int             // outstanding prefetches per disk
	inflight  map[int64]*disk.Request // in-transit block -> its disk request

	// Degradation state: per-block transient-failure counts, blocks demoted
	// from prefetching after repeated failures, and dead-disk blocks already
	// counted as skipped (so DeadSkips counts blocks, not pump passes).
	retries     map[int64]int
	demoted     map[int64]bool
	deadSkipped map[int64]bool
	faults      FaultCounters

	obs *obs.Trace // nil = tracing off; all methods are nil-safe
}

// Client is one process's handle on the manager: a private hint queue,
// accuracy estimate and read-ahead state. Hints disclosed and cancelled
// through a Client never touch another client's queue.
type Client struct {
	m      *Manager
	id     int
	name   string
	closed bool

	hints []*segment
	head  int // first unconsumed hint

	ra map[int64]*raState // by inode

	// Windowed hint-accuracy estimate (right ≈ matched, wrong ≈ bypassed +
	// cancelled, both decayed): TIP discounts the benefit of prefetching
	// for processes whose recent hints proved unreliable, but a burst of
	// cancellations must not suppress prefetching forever.
	accGood float64
	accBad  float64

	// Static accuracy prior (SetPrior): blended into the windowed estimate
	// with priorWt pseudo-observations, so a statically analyzed hint stream
	// starts at its proved confidence instead of an optimistic 1.0 and early
	// dynamic evidence cannot whipsaw the horizon. priorWt == 0 (the
	// default) disables blending entirely.
	prior   float64
	priorWt float64

	stats Stats
}

// priorWeight is how many pseudo-observations a static prior contributes to
// the windowed accuracy estimate (an eighth of the window: strong enough to
// anchor the start, weak enough for real evidence to dominate).
const priorWeight = accWindow / 8

// accWindow is the sliding-window size for the accuracy estimate.
const accWindow = 256

// New constructs a manager over the given clock, array and file system.
func New(clk *sim.Queue, arr *disk.Array, fs *fsim.FS, cfg Config) (*Manager, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &Manager{
		clk:         clk,
		arr:         arr,
		fs:          fs,
		cache:       cache.New(cfg.CacheBlocks),
		cfg:         cfg,
		prefDepth:   make(map[int]int),
		inflight:    make(map[int64]*disk.Request),
		retries:     make(map[int64]int),
		demoted:     make(map[int64]bool),
		deadSkipped: make(map[int64]bool),
	}
	m.cache.SetAccuracyFn(func(owner int) float64 {
		if owner >= 0 && owner < len(m.clients) {
			return m.clients[owner].accuracy()
		}
		return 1
	})
	arr.OnIdle = func(int) { m.pump() }
	return m, nil
}

// NewClient registers a new hint stream with the manager. The name labels
// the stream in diagnostics; ids are assigned sequentially from zero, except
// that the slot of a closed client is reused first (its final counters move
// into the manager's retired aggregate — see Stats). A closed client holds
// no cache protection (Close released it), so reuse cannot leak ownership.
func (m *Manager) NewClient(name string) *Client {
	if n := len(m.free); n > 0 {
		id := m.free[n-1]
		m.free = m.free[:n-1]
		m.retired.add(m.clients[id].stats)
		c := &Client{m: m, id: id, name: name, ra: make(map[int64]*raState)}
		m.clients[id] = c
		m.recomputePartitions()
		return c
	}
	c := &Client{m: m, id: len(m.clients), name: name, ra: make(map[int64]*raState)}
	m.clients = append(m.clients, c)
	m.recomputePartitions()
	return c
}

// def returns the default client behind the Manager-level wrappers, creating
// it on first use. Single-process runs that drive the Manager directly (or
// through exactly one explicit client) therefore never see partitioning.
func (m *Manager) def() *Client {
	if m.defc == nil {
		m.defc = m.NewClient("default")
	}
	return m.defc
}

// Cache exposes the underlying cache (read-only use: stats, inspection).
func (m *Manager) Cache() *cache.Cache { return m.cache }

// SetObs installs a cross-layer trace: hint/prefetch/consume lifecycles land
// on the "tip" lane, and the cache (which holds no clock) is wired to emit on
// the "cache" lane with the manager's clock.
func (m *Manager) SetObs(tr *obs.Trace) {
	m.obs = tr
	m.cache.SetObs(tr, m.clk.Now)
}

// emit records a tip event when tracing is on.
func (m *Manager) emit(name, format string, args ...any) {
	if m.obs.Enabled() {
		m.obs.Emitf(m.clk.Now(), "tip", "tip", name, format, args...)
	}
}

// PrefetchDepth returns the prefetch requests currently outstanding (queued
// or in service) across the array — the depth the cost-benefit rule bounds.
func (m *Manager) PrefetchDepth() int {
	depth := 0
	for _, d := range m.prefDepth {
		depth += d
	}
	return depth
}

// MeanAccuracy returns the mean windowed hint accuracy over open clients
// (1.0 with no clients — no evidence of error).
func (m *Manager) MeanAccuracy() float64 {
	open := m.openClients()
	if len(open) == 0 {
		return 1
	}
	sum := 0.0
	for _, c := range open {
		sum += c.accuracy()
	}
	return sum / float64(len(open))
}

// Faults returns the substrate-wide degradation counters.
func (m *Manager) Faults() FaultCounters { return m.faults }

// Degraded reports whether the manager is running in degraded mode: at
// least one disk of the array has permanently failed, so prefetching for
// stripes mapped to it is suspended while demand reads keep flowing.
func (m *Manager) Degraded() bool {
	for i := 0; i < m.arr.Config().NumDisks; i++ {
		if m.arr.Dead(i) {
			return true
		}
	}
	return false
}

// Stats returns the counters summed over every client the manager has ever
// had: live and closed clients still holding their slot, plus the retired
// aggregate of clients whose slot NewClient handed out again.
func (m *Manager) Stats() Stats {
	sum := m.retired
	for _, c := range m.clients {
		sum.add(c.stats)
	}
	return sum
}

// ID returns the client's id (also its cache owner id).
func (c *Client) ID() int { return c.id }

// Name returns the label given at NewClient.
func (c *Client) Name() string { return c.name }

// Stats returns a copy of this client's counters.
func (c *Client) Stats() Stats { return c.stats }

// Close retires the client: its queued hints are released (without the
// accuracy penalty of a cancel — the process exited; its predictions were not
// wrong) and its cache partition is redistributed to the survivors.
func (c *Client) Close() {
	if c.closed {
		return
	}
	for i := c.head; i < len(c.hints); i++ {
		seg := c.hints[i]
		if seg.cancelled || seg.complete {
			continue
		}
		for _, lb := range seg.blocks {
			c.unprotect(lb)
		}
	}
	c.hints = nil
	c.head = 0
	c.closed = true
	c.m.free = append(c.m.free, c.id)
	c.m.recomputePartitions()
}

// unprotect releases the hint protection c holds on lb, if any. A block
// re-protected by a different client keeps that client's protection.
func (c *Client) unprotect(lb int64) {
	if b := c.m.cache.Get(lb); b != nil && b.HintDist != cache.NoHint && b.Owner == c.id {
		c.m.cache.SetHintFor(lb, c.id, cache.NoHint)
	}
}

func (c *Client) accObserve(good bool, weight float64) {
	if good {
		c.accGood += weight
	} else {
		c.accBad += weight
	}
	if c.accGood+c.accBad > accWindow {
		c.accGood /= 2
		c.accBad /= 2
	}
	c.m.recomputePartitions()
}

// openClients returns the clients still accepting hints.
func (m *Manager) openClients() []*Client {
	var open []*Client
	for _, c := range m.clients {
		if !c.closed {
			open = append(open, c)
		}
	}
	return open
}

// recomputePartitions reapportions the hinted-buffer budget across open
// clients. With at most one open client the cache is unpartitioned (the
// single-process configuration of the paper); with several, a quarter of the
// cache is reserved as the shared unhinted LRU pool and the rest is split in
// proportion to each client's recent hint accuracy — TIP's cost-benefit
// allocation reduced to its ranking: reliable hinters earn deeper prefetch
// residency.
func (m *Manager) recomputePartitions() {
	open := m.openClients()
	if len(open) <= 1 {
		for _, c := range m.clients {
			m.cache.SetPartition(c.id, 0)
		}
		return
	}
	reserve := m.cfg.CacheBlocks / 4
	if reserve < 1 {
		reserve = 1
	}
	avail := m.cfg.CacheBlocks - reserve
	var sumW float64
	for _, c := range open {
		sumW += c.weight()
	}
	for _, c := range m.clients {
		if c.closed {
			m.cache.SetPartition(c.id, 0)
			continue
		}
		share := int(float64(avail) * c.weight() / sumW)
		if share < 1 {
			share = 1
		}
		m.cache.SetPartition(c.id, share)
	}
}

// weight is the client's partition weight: accuracy floored so an unlucky
// client keeps a foothold from which its estimate can recover.
func (c *Client) weight() float64 {
	w := c.accuracy()
	if w < 0.05 {
		w = 0.05
	}
	return w
}

// blockRange returns the file-block index range [first, last] covering
// [off, off+n) clamped to the file, or ok=false if the range is empty.
func blockRange(f *fsim.File, off, n int64, blockSize int64) (first, last int64, ok bool) {
	if off < 0 || n <= 0 || off >= f.Size() {
		return 0, 0, false
	}
	end := off + n
	if end > f.Size() {
		end = f.Size()
	}
	return off / blockSize, (end - 1) / blockSize, true
}

// HintSeg discloses a future read through the default client; see
// Client.HintSeg.
func (m *Manager) HintSeg(f *fsim.File, off, n int64) { m.def().HintSeg(f, off, n) }

// HintSegConf discloses a future read with a static confidence through the
// default client; see Client.HintSegConf.
func (m *Manager) HintSegConf(f *fsim.File, off, n int64, conf float64) {
	m.def().HintSegConf(f, off, n, conf)
}

// HintBatch discloses several future reads through the default client.
func (m *Manager) HintBatch(segs []Seg) { m.def().HintBatch(segs) }

// CancelAll cancels the default client's hints; see Client.CancelAll.
func (m *Manager) CancelAll() { m.def().CancelAll() }

// Accuracy returns the default client's accuracy estimate.
func (m *Manager) Accuracy() float64 { return m.def().Accuracy() }

// Covered reports hint coverage within the default client's queue.
func (m *Manager) Covered(f *fsim.File, off, n int64) bool { return m.def().Covered(f, off, n) }

// Read performs a demand read through the default client; see Client.Read.
func (m *Manager) Read(f *fsim.File, off, n int64, hinted bool, done func(err error)) bool {
	return m.def().Read(f, off, n, hinted, done)
}

// HintSeg discloses a future read of [off, off+n) in f (TIPIO_SEG /
// TIPIO_FD_SEG; the two differ only in how the caller named the file).
func (c *Client) HintSeg(f *fsim.File, off, n int64) {
	c.hintSeg(f, off, n, 0)
}

// HintSegConf is HintSeg carrying a static confidence in (0, 1]: the hint
// comes from the static synthesizer rather than from observed execution, and
// conf bounds how deep the pump will prefetch for this segment (a fraction
// of the horizon, floored at MinHorizon). conf <= 0 degenerates to HintSeg.
func (c *Client) HintSegConf(f *fsim.File, off, n int64, conf float64) {
	if conf > 1 {
		conf = 1
	}
	if conf < 0 {
		conf = 0
	}
	c.hintSeg(f, off, n, conf)
}

func (c *Client) hintSeg(f *fsim.File, off, n int64, conf float64) {
	c.stats.HintCalls++
	m := c.m
	bs := int64(m.fs.BlockSize())
	seg := &segment{file: f, off: off, n: n, conf: conf}
	if first, last, ok := blockRange(f, off, n, bs); ok {
		seg.firstBlock = first
		for b := first; b <= last; b++ {
			seg.blocks = append(seg.blocks, f.LogicalBlock(b))
		}
		c.stats.HintBlocks += int64(len(seg.blocks))
		end := off + n
		if end > f.Size() {
			end = f.Size()
		}
		c.stats.HintBytes += end - off
	}
	if m.cfg.IgnoreHints || c.closed {
		return
	}
	if m.cfg.MaxHintSegs > 0 && len(c.hints)-c.head >= m.cfg.MaxHintSegs {
		// Hint buffers are full (runaway speculation): drop the hint.
		c.stats.DroppedHints++
		m.emit("hint-dropped", "client=%d %s off=%d n=%d (queue full)", c.id, f.Name, off, n)
		return
	}
	c.hints = append(c.hints, seg)
	m.emit("hint", "client=%d %s off=%d n=%d blocks=%d", c.id, f.Name, off, n, len(seg.blocks))
	m.pump()
}

// Seg is one (file, offset, length) disclosure for batch hinting.
type Seg struct {
	File *fsim.File
	Off  int64
	N    int64
}

// HintBatch discloses several future reads in one call — Table 2's batched
// TIPIO_SEG form. Speculative execution discovers reads one at a time and
// never uses it (as the paper notes), but manually modified applications
// can.
func (c *Client) HintBatch(segs []Seg) {
	for _, sg := range segs {
		c.HintSeg(sg.File, sg.Off, sg.N)
	}
}

// CancelAll cancels all of this client's outstanding hints (TIPIO_CANCEL_ALL).
// Other clients' hints are untouched. Prefetch requests already issued to the
// disks proceed; their blocks merely lose hint protection in the cache.
func (c *Client) CancelAll() {
	c.stats.CancelCalls++
	if c.m.cfg.IgnoreHints {
		return
	}
	cancelled := 0
	for i := c.head; i < len(c.hints); i++ {
		seg := c.hints[i]
		if seg.cancelled {
			continue
		}
		seg.cancelled = true
		c.stats.CancelledSegs++
		cancelled++
		c.accObserve(false, 1)
		for _, lb := range seg.blocks {
			c.unprotect(lb)
		}
	}
	c.m.emit("cancel-all", "client=%d segs=%d", c.id, cancelled)
	c.hints = c.hints[:0]
	c.head = 0
}

// Accuracy returns TIP's windowed estimate of the fraction of this client's
// recent hints that proved correct (1.0 before any evidence). The adaptive
// speculation throttle consults it.
func (c *Client) Accuracy() float64 { return c.accuracy() }

// SetPrior installs a static accuracy prior for this client's hint stream
// (clamped to [0, 1]): the confidence the static hint synthesizer assigned
// to its disclosures. It acts as priorWeight pseudo-observations in the
// windowed accuracy estimate. Clients without a prior behave exactly as
// before (optimistic 1.0 until dynamic evidence arrives).
func (c *Client) SetPrior(p float64) {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	c.prior = p
	c.priorWt = priorWeight
	c.m.recomputePartitions()
}

// accuracy estimates the fraction of recent hints that proved correct. TIP
// uses this to discount the benefit of prefetching in response to hints.
// A static prior, when set, contributes priorWt pseudo-observations.
func (c *Client) accuracy() float64 {
	if c.priorWt > 0 {
		return (c.accGood + c.prior*c.priorWt) / (c.accGood + c.accBad + c.priorWt)
	}
	if c.accGood+c.accBad == 0 {
		return 1.0
	}
	return c.accGood / (c.accGood + c.accBad)
}

// effHorizon returns the client's accuracy-scaled prefetch horizon.
func (c *Client) effHorizon() int {
	h := int(float64(c.m.cfg.Horizon) * c.accuracy())
	if h < c.m.cfg.MinHorizon {
		h = c.m.cfg.MinHorizon
	}
	return h
}

// pump issues hint-driven prefetches for every client. It is invoked on every
// hint, every disk-idle transition and every completion. Clients are visited
// in id order for determinism; one client running out of buffers does not
// stop the others (their partitions may still have room).
func (m *Manager) pump() {
	if m.cfg.IgnoreHints {
		return
	}
	for _, c := range m.clients {
		c.pump()
	}
}

// pump issues this client's hint-driven prefetches up to its effective
// horizon.
func (c *Client) pump() {
	if c.closed {
		return
	}
	m := c.m
	horizon := c.effHorizon()
	bs := int64(m.fs.BlockSize())
	dist := 0
	for i := c.head; i < len(c.hints) && dist < horizon; i++ {
		seg := c.hints[i]
		if seg.cancelled || seg.complete {
			continue
		}
		// A statically synthesized hint prefetches only within its
		// confidence-scaled share of the horizon: proved segments (conf 1)
		// run to the full depth, speculative ones stop shallow. Blocks past
		// the bound still advance dist, so later segments see their true
		// queue distance. conf == 0 (dynamic hints) leaves lim == horizon.
		lim := int64(horizon)
		if seg.conf > 0 {
			l := int64(seg.conf * float64(horizon))
			if floor := int64(m.cfg.MinHorizon); l < floor {
				l = floor
			}
			if l < lim {
				lim = l
			}
		}
		for _, lb := range seg.blocks[seg.consumedBlocks(bs):] {
			if dist >= horizon {
				return
			}
			d := int64(dist)
			dist++
			if d >= lim {
				continue
			}
			if m.demoted[lb] {
				// Repeatedly failing block: left to the demand read, so the
				// rest of the hinted sequence keeps prefetching.
				continue
			}
			if dk, _ := m.arr.Map(lb); m.arr.Dead(dk) {
				// Degraded mode: no prefetching onto a dead disk.
				if !m.deadSkipped[lb] {
					m.deadSkipped[lb] = true
					m.faults.DeadSkips++
				}
				continue
			}
			if b := m.cache.Get(lb); b != nil {
				if b.HintDist > d {
					m.cache.SetHintFor(lb, c.id, d)
				}
				continue
			}
			switch m.startFetch(c.id, lb, cache.OriginHint, d) {
			case fetchStarted:
				c.stats.HintPrefetches++
				m.emit("prefetch", "client=%d lb=%d dist=%d", c.id, lb, d)
			case fetchDiskBusy:
				continue // this disk is at depth; later blocks may differ
			case fetchNoBuffer:
				return // cache pressure: stop pumping this client
			}
		}
	}
}

// fetchResult says why startFetch declined, so the pump can distinguish
// per-disk back-pressure (skip the block) from cache pressure (stop).
type fetchResult int

const (
	fetchStarted fetchResult = iota
	fetchDiskBusy
	fetchNoBuffer
)

// startFetch acquires a buffer for lb on the owner's behalf and submits the
// disk request, leaving no residue on failure. Prefetch-priority fetches are
// refused outright when the target disk is dead (degraded mode); demand
// fetches are always submitted — the dead disk answers them with ErrDead,
// which surfaces to the reader as a read error.
func (m *Manager) startFetch(owner int, lb int64, origin cache.Origin, hintDist int64) fetchResult {
	dk, phys := m.arr.Map(lb)
	pri := disk.Prefetch
	if origin == cache.OriginDemand {
		pri = disk.Demand
	}
	if pri == disk.Prefetch && m.arr.Dead(dk) {
		return fetchDiskBusy
	}
	bound := m.cfg.MaxDepthPerDisk
	if origin == cache.OriginReadahead {
		bound = m.cfg.RADepthPerDisk
	}
	if pri == disk.Prefetch && bound > 0 && m.prefDepth[dk] >= bound {
		return fetchDiskBusy
	}
	b := m.cache.AcquireFor(owner, lb, origin, hintDist)
	if b == nil {
		return fetchNoBuffer
	}
	isPref := pri == disk.Prefetch
	req := &disk.Request{
		Disk: dk, PhysBlock: phys, Pri: pri,
		Done: func(err error) { m.onFetchDone(lb, dk, isPref, err) },
	}
	if !m.arr.Submit(req) {
		m.cache.Drop(lb)
		return fetchDiskBusy
	}
	m.inflight[lb] = req
	if isPref {
		m.prefDepth[dk]++
	}
	return fetchStarted
}

func (m *Manager) onFetchDone(lb int64, dk int, wasPrefetch bool, err error) {
	if wasPrefetch {
		m.prefDepth[dk]--
	}
	delete(m.inflight, lb)
	if err != nil {
		m.handleFetchError(lb, dk, err)
	} else {
		delete(m.retries, lb)
		delete(m.demoted, lb)
		m.cache.Complete(lb)
	}
	m.retryPendingDemand()
	m.pump()
}

// handleFetchError is the degradation policy for a fetch that completed
// with an error. Demand-critical blocks (a demand read is waiting, or the
// fetch was demand-priority) retry with capped exponential backoff until
// they succeed or their disk dies; pure prefetches retry MaxFetchRetries
// times and are then demoted — dropped from the hinted sequence so the
// prefetcher does not wedge on one bad block. Dead-disk errors never retry:
// the block resolves to an error immediately.
func (m *Manager) handleFetchError(lb int64, dk int, err error) {
	m.faults.FetchErrors++
	b := m.cache.Get(lb)
	if b == nil || b.State() != cache.InTransit {
		panic(fmt.Sprintf("tip: fetch error for block %d not in transit", lb))
	}
	if err == disk.ErrDead {
		delete(m.retries, lb)
		if b.Demanded() {
			m.faults.FailedDemand++
		}
		m.emit("fetch-dead", "lb=%d disk=%d demanded=%v", lb, dk, b.Demanded())
		m.cache.Fail(lb)
		return
	}
	attempt := m.retries[lb] + 1
	m.retries[lb] = attempt
	if !b.Demanded() && attempt > m.cfg.MaxFetchRetries {
		m.demote(lb)
		return
	}
	m.faults.FetchRetries++
	m.emit("fetch-retry", "lb=%d disk=%d attempt=%d backoff=%d", lb, dk, attempt, m.cfg.retryBackoff(attempt))
	m.clk.After(m.cfg.retryBackoff(attempt), func() { m.refetch(lb, dk) })
}

// demote gives up on prefetching lb: the buffer is released, the block is
// excluded from future pumping, and the eventual demand read fetches it
// itself (clearing the demotion on success).
func (m *Manager) demote(lb int64) {
	delete(m.retries, lb)
	m.demoted[lb] = true
	m.faults.DemotedBlocks++
	m.emit("demote", "lb=%d after %d retries", lb, m.cfg.MaxFetchRetries)
	m.cache.Fail(lb)
}

// refetch re-submits the disk request for a still-in-transit block after a
// backoff. A block a demand read started waiting on during the backoff is
// upgraded to demand priority.
func (m *Manager) refetch(lb int64, dk int) {
	b := m.cache.Get(lb)
	if b == nil || b.State() != cache.InTransit {
		return // resolved meanwhile
	}
	_, phys := m.arr.Map(lb)
	pri := disk.Prefetch
	if b.Demanded() {
		pri = disk.Demand
	}
	isPref := pri == disk.Prefetch
	if isPref && m.arr.Dead(dk) {
		m.demote(lb)
		return
	}
	req := &disk.Request{
		Disk: dk, PhysBlock: phys, Pri: pri,
		Done: func(err error) { m.onFetchDone(lb, dk, isPref, err) },
	}
	if !m.arr.Submit(req) {
		// Prefetch back-pressure on the retry path: demote rather than wedge.
		m.demote(lb)
		return
	}
	m.inflight[lb] = req
	if isPref {
		m.prefDepth[dk]++
	}
}

func (m *Manager) retryPendingDemand() {
	if len(m.pendingDemand) == 0 {
		return
	}
	pending := m.pendingDemand
	m.pendingDemand = m.pendingDemand[:0]
	for _, fn := range pending {
		if !fn() {
			m.pendingDemand = append(m.pendingDemand, fn)
		}
	}
}

// findCover returns the queue index of the first live segment whose range
// covers the read [off, off+n) of f (both clamped to the file), or -1.
func (c *Client) findCover(f *fsim.File, off, n int64) int {
	covEnd := off + n
	if sz := f.Size(); covEnd > sz {
		covEnd = sz
	}
	for i := c.head; i < len(c.hints); i++ {
		seg := c.hints[i]
		if seg.cancelled || seg.complete {
			continue
		}
		if seg.file == f && off >= seg.off && covEnd <= seg.dataEnd() {
			return i
		}
	}
	return -1
}

// Covered reports whether a read of [off, off+n) in f is disclosed by one of
// this client's outstanding hints. Manually-hinted applications use this to
// decide whether a read call counts as hinted.
func (c *Client) Covered(f *fsim.File, off, n int64) bool {
	if c.m.cfg.IgnoreHints {
		return false
	}
	return c.findCover(f, off, n) >= 0
}

// consume matches a hinted demand read against the client's hint queue.
// Segments skipped over on the way to the covering segment predicted reads
// that did not occur (in that order) and are bypassed — this is how erroneous
// speculation shows up in Table 4.
// The staticTail return reports that the covering segment was a static
// (conf-tagged) hint whose data this read fully exhausted: the hint stream
// discloses nothing further in the file here, so sequential readahead is not
// redundant with it. Always false for dynamic (conf 0) hints, preserving
// their behavior exactly.
func (c *Client) consume(f *fsim.File, off, n int64) (staticTail bool) {
	i := c.findCover(f, off, n)
	if i < 0 {
		return false
	}
	bypassed := 0
	for j := c.head; j < i; j++ {
		seg := c.hints[j]
		if !seg.cancelled && !seg.complete {
			c.stats.BypassedSegs++
			bypassed++
			c.accObserve(false, 1)
			for _, lb := range seg.blocks {
				c.unprotect(lb)
			}
		}
	}
	c.head = i
	seg := c.hints[i]
	c.m.emit("consume", "client=%d %s off=%d n=%d bypassed=%d", c.id, f.Name, off, n, bypassed)
	covEnd := off + n
	if end := seg.dataEnd(); covEnd > end {
		covEnd = end
	}
	if hw := covEnd - seg.off; hw > seg.consumed {
		seg.consumed = hw
	}
	c.accObserve(true, 1)
	staticTail = seg.conf > 0 && covEnd >= seg.dataEnd()
	if seg.off+seg.consumed >= seg.dataEnd() {
		seg.complete = true
		c.stats.MatchedCalls++
		c.stats.MatchedBlocks += int64(len(seg.blocks))
		if bytes := seg.dataEnd() - seg.off; bytes > 0 {
			c.stats.MatchedBytes += bytes
		}
		// Pop the completed prefix.
		for c.head < len(c.hints) && (c.hints[c.head].complete || c.hints[c.head].cancelled) {
			c.head++
		}
		c.compact()
	}
	return staticTail
}

// compact reclaims consumed queue prefix space.
func (c *Client) compact() {
	if c.head > 1024 && c.head*2 > len(c.hints) {
		c.hints = append(c.hints[:0:0], c.hints[c.head:]...)
		c.head = 0
	}
}

// ErrReadFailed reports a demand read that could not be satisfied: at least
// one of its blocks resolved to an error with no retry left (its disk is
// dead). Transient faults never produce it — those retry until they succeed.
var ErrReadFailed = errors.New("tip: demand read failed (unrecoverable block)")

// Read performs a demand read of [off, off+n) from f. hinted says whether
// the application's read found a matching hint-log entry (core decides).
// done runs when every block has resolved — with nil if all are valid, or
// ErrReadFailed if any block is unrecoverable. If everything is already
// cached, done is NOT called and Read returns true (the caller continues
// synchronously — a cache hit costs no stall).
func (c *Client) Read(f *fsim.File, off, n int64, hinted bool, done func(err error)) (immediate bool) {
	m := c.m
	bs := int64(m.fs.BlockSize())
	first, last, ok := blockRange(f, off, n, bs)
	c.stats.ReadCalls++
	if hinted && !m.cfg.IgnoreHints {
		c.stats.HintedReadCalls++
	}
	if !ok {
		return true // zero-byte or EOF read: no I/O
	}
	nBlocks := last - first + 1
	end := off + n
	if end > f.Size() {
		end = f.Size()
	}
	c.stats.ReadBlocks += nBlocks
	c.stats.ReadBytes += end - off
	staticTail := false
	if hinted && !m.cfg.IgnoreHints {
		c.stats.HintedReadBlocks += nBlocks
		c.stats.HintedReadBytes += end - off
		staticTail = c.consume(f, off, n)
	}

	remaining := 0
	var readErr error
	var finish func(err error)
	dec := func(ok bool) {
		if !ok {
			readErr = ErrReadFailed
		}
		remaining--
		if remaining == 0 && finish != nil {
			finish(readErr)
		}
	}

	// touchConsumed records a demand access and releases the block's hint
	// protection: a consumed block must age out by LRU like any other, or
	// it would squat in the cache with a stale, ever-more-precious hint
	// distance while fresh prefetches evict each other at the horizon tail.
	// Protection held by a *different* client survives — that client has
	// its own read coming.
	//
	// A completion wakes its waiters one after another, and an earlier
	// waiter's continuation (a reply, then that client's next read) can
	// evict the block before a later waiter touches it. The data was
	// delivered at completion all the same; only the touch is moot.
	touchConsumed := func(lb int64) {
		if blk := m.cache.Get(lb); blk == nil || blk.State() != cache.Valid {
			return
		}
		m.cache.Touch(lb)
		c.unprotect(lb)
	}

	type fetchPlan struct{ lb int64 }
	var misses []fetchPlan
	for b := first; b <= last; b++ {
		lb := f.LogicalBlock(b)
		blk := m.cache.Get(lb)
		switch {
		case blk != nil && blk.State() == cache.Valid:
			touchConsumed(lb)
		case blk != nil: // in transit
			m.cache.NoteDemandWait(lb)
			// The application now needs this block: if its prefetch is
			// still queued, it inherits demand priority.
			if req := m.inflight[lb]; req != nil {
				m.arr.Promote(req)
			}
			remaining++
			m.cache.Wait(lb, func(ok bool) {
				if ok {
					touchConsumed(lb)
				}
				dec(ok)
			})
		default:
			m.cache.NoteMiss()
			remaining++
			misses = append(misses, fetchPlan{lb})
		}
	}
	for _, p := range misses {
		lb := p.lb
		start := func() bool {
			if blk := m.cache.Get(lb); blk != nil {
				// Raced with a prefetch issued meanwhile.
				if blk.State() == cache.Valid {
					touchConsumed(lb)
					dec(true)
					return true
				}
				m.cache.NoteDemandWait(lb)
				m.cache.Wait(lb, func(ok bool) {
					if ok {
						touchConsumed(lb)
					}
					dec(ok)
				})
				return true
			}
			if m.startFetch(c.id, lb, cache.OriginDemand, cache.NoHint) != fetchStarted {
				return false
			}
			m.cache.NoteDemandWait(lb)
			m.cache.Wait(lb, func(ok bool) {
				if ok {
					touchConsumed(lb)
				}
				dec(ok)
			})
			return true
		}
		if !start() {
			m.pendingDemand = append(m.pendingDemand, start)
		}
	}

	if !hinted || m.cfg.IgnoreHints || staticTail {
		c.readahead(f, off, end, first, last)
	}

	// Consuming a hint moves the horizon forward; fill it.
	m.pump()

	if remaining == 0 {
		return true
	}
	finish = done
	return false
}

// readahead implements the sequential read-ahead policy: on a sequential
// read, prefetch approximately as many blocks as have been read
// sequentially, up to ReadaheadMax. The run state is per client as well as
// per file — two processes interleaving reads of one file must not corrupt
// each other's sequentiality detection.
func (c *Client) readahead(f *fsim.File, off, end, first, last int64) {
	m := c.m
	if m.cfg.ReadaheadMax == 0 {
		return
	}
	st := c.ra[f.Ino()]
	if st == nil {
		st = &raState{}
		c.ra[f.Ino()] = st
	}
	nBlocks := last - first + 1
	if off == st.nextByte || off == 0 && st.nextByte == 0 {
		st.runBlocks += nBlocks
	} else {
		st.runBlocks = nBlocks
	}
	st.nextByte = end

	depth := st.runBlocks
	if depth > int64(m.cfg.ReadaheadMax) {
		depth = int64(m.cfg.ReadaheadMax)
	}
	for b := last + 1; b <= last+depth && b < f.NBlocks(); b++ {
		lb := f.LogicalBlock(b)
		if m.cache.Get(lb) != nil {
			continue
		}
		if m.startFetch(c.id, lb, cache.OriginReadahead, cache.NoHint) != fetchStarted {
			return
		}
		c.stats.RAPrefetches++
		m.emit("readahead", "client=%d lb=%d run=%d", c.id, lb, st.runBlocks)
	}
}

// CachedRange reports whether every block of [off, off+n) in f is Valid —
// the condition under which a *speculative* read can be given real data.
func (m *Manager) CachedRange(f *fsim.File, off, n int64) bool {
	first, last, ok := blockRange(f, off, n, int64(m.fs.BlockSize()))
	if !ok {
		return true
	}
	for b := first; b <= last; b++ {
		blk := m.cache.Get(f.LogicalBlock(b))
		if blk == nil || blk.State() != cache.Valid {
			return false
		}
	}
	return true
}

// CachedRange delegates to the shared cache; see Manager.CachedRange.
func (c *Client) CachedRange(f *fsim.File, off, n int64) bool { return c.m.CachedRange(f, off, n) }

// FinishRun finalizes accounting at the end of a benchmark run.
func (m *Manager) FinishRun() {
	m.cache.FlushAccounting()
}
