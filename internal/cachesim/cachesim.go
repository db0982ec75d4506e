// Package cachesim implements the configurable cache hierarchy simulator
// embedded in NV-SCAVENGER (paper §III, Table II).
//
// It consumes the raw access stream from the instrumentation substrate and
// emits the filtered main-memory trace: last-level-cache miss fills and
// dirty-line writebacks.  That trace is what the memory power simulator
// prices, because only those references reach the DRAM/NVRAM devices.
//
// The default configuration matches Table II of the paper: a private 32 KB
// 4-way L1 data cache with 64-byte lines and a no-write-allocate policy, and
// a private 1 MB 16-way LRU L2 with write-allocate.  Both levels are
// write-back.
package cachesim

import (
	"fmt"

	"nvscavenger/internal/trace"
)

// Replacement selects the victim policy within a set.
type Replacement uint8

const (
	// LRU evicts the least-recently-used way (Table II's policy).
	LRU Replacement = iota
	// FIFO evicts the oldest-filled way regardless of use.
	FIFO
	// RandomRepl evicts a pseudo-random way (deterministic xorshift).
	RandomRepl
)

// String names the policy.
func (r Replacement) String() string {
	switch r {
	case FIFO:
		return "FIFO"
	case RandomRepl:
		return "random"
	}
	return "LRU"
}

// LevelConfig describes one cache level.
type LevelConfig struct {
	// Name labels the level in reports ("L1D", "L2").
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// Ways is the set associativity.
	Ways int
	// LineSize is the cache line size in bytes (shared by all levels).
	LineSize int
	// WriteAllocate controls whether a write miss fills the level.  With
	// no-write-allocate, a write miss is forwarded down without filling.
	WriteAllocate bool
	// Replacement selects the victim policy (default LRU, as Table II).
	Replacement Replacement
}

func (c LevelConfig) sets() int { return c.SizeBytes / (c.Ways * c.LineSize) }

func (c LevelConfig) validate() error {
	if c.SizeBytes <= 0 || c.Ways <= 0 || c.LineSize <= 0 {
		return fmt.Errorf("cachesim: %s: non-positive geometry %+v", c.Name, c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cachesim: %s: line size %d not a power of two", c.Name, c.LineSize)
	}
	if c.SizeBytes%(c.Ways*c.LineSize) != 0 {
		return fmt.Errorf("cachesim: %s: size %d not divisible by ways*line", c.Name, c.SizeBytes)
	}
	s := c.sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cachesim: %s: set count %d not a power of two", c.Name, s)
	}
	return nil
}

// Config describes the full hierarchy.
type Config struct {
	L1 LevelConfig
	L2 LevelConfig
}

// Validate checks both levels' geometry and the cross-level invariant the
// hierarchy assumes: one line size shared by all levels.  A mismatched
// configuration would silently compute wrong writeback line addresses
// (L1 victims re-aligned with L2's mask), so it is an error, not a wish.
func (c Config) Validate() error {
	if err := c.L1.validate(); err != nil {
		return err
	}
	if err := c.L2.validate(); err != nil {
		return err
	}
	if c.L1.LineSize != c.L2.LineSize {
		return fmt.Errorf("cachesim: mixed line sizes %d/%d (LineSize is shared by all levels)",
			c.L1.LineSize, c.L2.LineSize)
	}
	return nil
}

// PaperConfig returns the Table II configuration: L1D 32 KB 4-way 64 B
// no-write-allocate; L2 1 MB 16-way 64 B LRU write-allocate.
func PaperConfig() Config {
	return Config{
		L1: LevelConfig{Name: "L1D", SizeBytes: 32 << 10, Ways: 4, LineSize: 64, WriteAllocate: false},
		L2: LevelConfig{Name: "L2", SizeBytes: 1 << 20, Ways: 16, LineSize: 64, WriteAllocate: true},
	}
}

// LevelStats counts events at one cache level.
type LevelStats struct {
	Hits       uint64
	Misses     uint64
	Evictions  uint64
	Writebacks uint64 // dirty evictions passed down
}

// Accesses returns hits+misses.
func (s LevelStats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRatio returns misses/accesses (0 for an idle level).
func (s LevelStats) MissRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses())
}

// HitRatio returns hits/accesses (0 for an idle level).
func (s LevelStats) HitRatio() float64 {
	if s.Accesses() == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses())
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	// lastUse implements LRU: larger is more recent.
	lastUse uint64
}

// level is one set-associative write-back cache.
type level struct {
	cfg      LevelConfig
	sets     [][]line
	setMask  uint64
	lineBits uint
	clock    uint64
	rng      uint64 // xorshift state for random replacement
	stats    LevelStats
}

func newLevel(cfg LevelConfig) (*level, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	n := cfg.sets()
	l := &level{cfg: cfg, sets: make([][]line, n), setMask: uint64(n - 1), rng: 0x2545F4914F6CDD1D}
	for i := range l.sets {
		l.sets[i] = make([]line, cfg.Ways)
	}
	for b := cfg.LineSize; b > 1; b >>= 1 {
		l.lineBits++
	}
	return l, nil
}

// evicted describes a line pushed out of a level.
type evicted struct {
	lineAddr uint64
	dirty    bool
}

// access looks up a line address.  On a miss with allocate=true the line is
// filled, possibly evicting another line (returned).  markDirty sets the
// dirty bit on the (hit or freshly filled) line.
func (l *level) access(lineAddr uint64, markDirty, allocate bool) (hit bool, ev evicted, hasEv bool) {
	l.clock++
	setIdx := (lineAddr >> l.lineBits) & l.setMask
	tag := lineAddr >> l.lineBits
	set := l.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			if l.cfg.Replacement != FIFO {
				set[i].lastUse = l.clock // FIFO keeps the fill stamp
			}
			if markDirty {
				set[i].dirty = true
			}
			l.stats.Hits++
			return true, evicted{}, false
		}
	}
	l.stats.Misses++
	if !allocate {
		return false, evicted{}, false
	}
	// Choose victim: an invalid way, else by the replacement policy.  For
	// FIFO, lastUse is only stamped on fill (below), so the LRU comparison
	// degenerates to insertion order; for random, xorshift picks the way.
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			goto fill
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	if l.cfg.Replacement == RandomRepl {
		l.rng ^= l.rng << 13
		l.rng ^= l.rng >> 7
		l.rng ^= l.rng << 17
		victim = int(l.rng % uint64(len(set)))
	}
	if set[victim].valid {
		ev = evicted{lineAddr: set[victim].tag << l.lineBits, dirty: set[victim].dirty}
		hasEv = true
		l.stats.Evictions++
		if ev.dirty {
			l.stats.Writebacks++
		}
	}
fill:
	set[victim] = line{tag: tag, valid: true, dirty: markDirty, lastUse: l.clock}
	return false, ev, hasEv
}

// invalidate drops a line if present, returning whether it was dirty.
func (l *level) invalidate(lineAddr uint64) (present, dirty bool) {
	setIdx := (lineAddr >> l.lineBits) & l.setMask
	tag := lineAddr >> l.lineBits
	set := l.sets[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			d := set[i].dirty
			set[i] = line{}
			return true, d
		}
	}
	return false, false
}

// Hierarchy is the two-level data-cache simulator.  It implements trace.Sink
// so the instrumentation tracer can flush access batches straight into it,
// and it emits the filtered main-memory trace the same way it receives
// references: staged into an internal batch and handed to a trace.TxSink in
// bulk, instead of one interface call per line fill or writeback.
type Hierarchy struct {
	l1, l2 *level
	txbuf  *trace.Buffer[trace.Transaction]
	// accesses drives the pseudo-cycle stamp on emitted transactions: with
	// no core timing model, "cycles" advance one per processed reference,
	// which is what a trace-fed power simulation expects (§IV: requests are
	// processed at full speed and average power is reported).
	accesses uint64
	// cycleSource, when set, overrides the pseudo-cycle stamp with a real
	// core clock (the cpusim integration).  It runs at emit time, so stamps
	// reflect issue order even though delivery is batched.
	cycleSource func() uint64

	// MemReads and MemWrites count emitted transactions.
	MemReads  uint64
	MemWrites uint64
}

// New builds a Hierarchy; sink may be nil to only collect statistics.
func New(cfg Config, sink trace.TxSink) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	l1, err := newLevel(cfg.L1)
	if err != nil {
		return nil, err
	}
	l2, err := newLevel(cfg.L2)
	if err != nil {
		return nil, err
	}
	h := &Hierarchy{l1: l1, l2: l2}
	if sink != nil {
		h.txbuf = trace.NewBuffer(sink.FlushTx, trace.DefaultTxBufferSize)
	}
	return h, nil
}

// MustNew is New for known-good configurations.
func MustNew(cfg Config, sink trace.TxSink) *Hierarchy {
	h, err := New(cfg, sink)
	if err != nil {
		panic(err)
	}
	return h
}

// SetCycleSource installs a clock for the Cycle stamp on emitted
// transactions, replacing the default one-pseudo-cycle-per-reference count.
// The CPU timing model couples itself to the hierarchy this way (§IV's
// integrated mode): the stamp is taken at emit time, before batching, so a
// downstream power simulator sees real issue timing.
func (h *Hierarchy) SetCycleSource(fn func() uint64) { h.cycleSource = fn }

// LineSize returns the hierarchy's cache line size.
func (h *Hierarchy) LineSize() int { return h.l1.cfg.LineSize }

// L1Stats returns the counters of the first level.
func (h *Hierarchy) L1Stats() LevelStats { return h.l1.stats }

// L2Stats returns the counters of the second level.
func (h *Hierarchy) L2Stats() LevelStats { return h.l2.stats }

// Err returns the first sink error encountered.
func (h *Hierarchy) Err() error { return h.txbuf.Err() }

// TxDropped returns the transactions dropped after the sink tripped.
func (h *Hierarchy) TxDropped() uint64 { return h.txbuf.Dropped() }

// TxTrips returns 1 once the sink error has tripped sticky, else 0.
func (h *Hierarchy) TxTrips() uint64 { return h.txbuf.Trips() }

// FlushTx drains the staged transaction batch into the sink.  Drain calls
// it at end of simulation; call it directly to push out a partial batch
// mid-run (e.g. before sampling a downstream consumer's state).
func (h *Hierarchy) FlushTx() error { return h.txbuf.Close() }

func (h *Hierarchy) emit(addr uint64, write bool) {
	if write {
		h.MemWrites++
	} else {
		h.MemReads++
	}
	if h.txbuf == nil {
		return
	}
	cycle := h.accesses
	if h.cycleSource != nil {
		cycle = h.cycleSource()
	}
	h.txbuf.Add(trace.Transaction{Addr: addr, Write: write, Cycle: cycle})
}

// ServiceLevel reports the deepest structure that had to service a
// reference; the performance model maps it to an access latency.
type ServiceLevel uint8

const (
	// ServicedL1 means the reference hit in the first level.
	ServicedL1 ServiceLevel = iota
	// ServicedL2 means it missed L1 and hit L2.
	ServicedL2
	// ServicedMem means it required a main-memory transaction.
	ServicedMem
)

// String names the level.
func (s ServiceLevel) String() string {
	switch s {
	case ServicedL1:
		return "L1"
	case ServicedL2:
		return "L2"
	}
	return "memory"
}

// Access runs one reference through the hierarchy and reports the deepest
// level that serviced it.  References spanning a line boundary are split
// into per-line references, as hardware would; the slowest line wins.
// A zero-size access is treated as a single-line touch: without the guard,
// End()-1 underflows and the per-line loop's end marker precedes its start.
func (h *Hierarchy) Access(a trace.Access) ServiceLevel {
	lineSize := uint64(h.l1.cfg.LineSize)
	first := a.Addr &^ (lineSize - 1)
	last := first
	if a.Size > 0 {
		last = (a.End() - 1) &^ (lineSize - 1)
	}
	deepest := ServicedL1
	for lineAddr := first; ; lineAddr += lineSize {
		if lvl := h.accessLine(lineAddr, a.IsWrite()); lvl > deepest {
			deepest = lvl
		}
		if lineAddr == last {
			break
		}
	}
	return deepest
}

func (h *Hierarchy) accessLine(lineAddr uint64, isWrite bool) ServiceLevel {
	h.accesses++

	// L1: no-write-allocate means a write miss does not fill L1 and is
	// forwarded to L2 as a write.
	allocate := !isWrite || h.l1.cfg.WriteAllocate
	hit, ev, hasEv := h.l1.access(lineAddr, isWrite, allocate)
	if hasEv && ev.dirty {
		// Dirty L1 victim is written back into L2.
		h.l2WriteBack(ev.lineAddr)
	}
	if hit {
		return ServicedL1
	}

	// L1 miss: the request goes to L2.  A read miss (or write-allocate
	// write miss) that filled L1 appears at L2 as a read fill request; a
	// no-write-allocate write miss appears as a write.
	if isWrite && !h.l1.cfg.WriteAllocate {
		return h.l2Write(lineAddr)
	}
	return h.l2Read(lineAddr)
}

// l2Read services an L1 fill request.
func (h *Hierarchy) l2Read(lineAddr uint64) ServiceLevel {
	hit, ev, hasEv := h.l2.access(lineAddr, false, true)
	if hasEv && ev.dirty {
		h.emit(ev.lineAddr, true)
	}
	if !hit {
		h.emit(lineAddr, false)
		return ServicedMem
	}
	return ServicedL2
}

// l2Write services a no-write-allocate L1 write miss.  L2 is write-allocate:
// on miss the line is fetched from memory and then dirtied.
func (h *Hierarchy) l2Write(lineAddr uint64) ServiceLevel {
	hit, ev, hasEv := h.l2.access(lineAddr, true, true)
	if hasEv && ev.dirty {
		h.emit(ev.lineAddr, true)
	}
	if !hit {
		// Write-allocate fill: read the line from memory first.
		h.emit(lineAddr, false)
		return ServicedMem
	}
	return ServicedL2
}

// l2WriteBack installs a dirty L1 victim in L2 (write-allocate on writeback).
func (h *Hierarchy) l2WriteBack(lineAddr uint64) {
	hit, ev, hasEv := h.l2.access(lineAddr, true, true)
	if hasEv && ev.dirty {
		h.emit(ev.lineAddr, true)
	}
	if !hit {
		h.emit(lineAddr, false)
	}
}

// Flush implements trace.Sink for direct attachment to a memtrace.Tracer.
func (h *Hierarchy) Flush(batch []trace.Access) error {
	for _, a := range batch {
		h.Access(a)
	}
	return h.Err()
}

// Drain writes back every dirty line in both levels, emitting the final
// writeback transactions, then flushes the staged transaction batch and
// returns the sink's sticky error, if any.  Call once at end of simulation
// so that resident dirty data is priced like DRAMSim2's final flush.
func (h *Hierarchy) Drain() error {
	for _, set := range h.l1.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				h.l2WriteBack(set[i].tag << h.l1.lineBits)
				set[i].dirty = false
			}
		}
	}
	for _, set := range h.l2.sets {
		for i := range set {
			if set[i].valid && set[i].dirty {
				h.emit(set[i].tag<<h.l2.lineBits, true)
				set[i].dirty = false
			}
		}
	}
	return h.FlushTx()
}
