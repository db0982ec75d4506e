package cachesim

import (
	"reflect"
	"testing"

	"nvscavenger/internal/trace"
)

// refLevel is the reference model the simulator is checked against: a
// plain set-associative write-back cache.  Each set is a fixed row of ways
// plus a recency list of way indices, most recent first.  A fill takes the
// lowest empty way, or else the way at the back of the list; LRU moves a
// hit to the front, FIFO leaves the list in fill order.  Random
// replacement is not modelled, so the fuzzer never configures it.
type refLevel struct {
	lineSize, sets uint64
	fifo           bool
	ways           [][]refLine
	recency        [][]int
	stats          LevelStats
}

type refLine struct {
	addr         uint64
	valid, dirty bool
}

func newRefLevel(c LevelConfig) *refLevel {
	r := &refLevel{lineSize: uint64(c.LineSize), sets: uint64(c.sets()), fifo: c.Replacement == FIFO}
	for i := uint64(0); i < r.sets; i++ {
		r.ways = append(r.ways, make([]refLine, c.Ways))
		r.recency = append(r.recency, nil)
	}
	return r
}

// touch moves way w of set s to the front of its recency list.
func (r *refLevel) touch(s uint64, w int) {
	list := r.recency[s]
	for i, x := range list {
		if x == w {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	r.recency[s] = append([]int{w}, list...)
}

// access returns whether lineAddr hit and the line a fill pushed out.
func (r *refLevel) access(lineAddr uint64, dirty, allocate bool) (hit bool, victim refLine) {
	s := lineAddr / r.lineSize % r.sets
	row := r.ways[s]
	for w := range row {
		if row[w].valid && row[w].addr == lineAddr {
			r.stats.Hits++
			row[w].dirty = row[w].dirty || dirty
			if !r.fifo {
				r.touch(s, w)
			}
			return true, refLine{}
		}
	}
	r.stats.Misses++
	if !allocate {
		return false, refLine{}
	}
	w := len(r.recency[s])
	if w == len(row) {
		w = r.recency[s][w-1]
		victim = row[w]
		r.stats.Evictions++
		if victim.dirty {
			r.stats.Writebacks++
		}
	}
	row[w] = refLine{addr: lineAddr, valid: true, dirty: dirty}
	r.touch(s, w)
	return false, victim
}

// refHierarchy composes two reference levels with the policy the
// simulator documents: L1 write misses bypass L1 unless it write-allocates,
// every L2 request allocates, a dirty L2 victim is written to memory and an
// L2 miss is filled from memory.  Transactions carry the number of line
// references issued so far as their cycle.
type refHierarchy struct {
	l1, l2       *refLevel
	l1WriteAlloc bool
	lineRefs     uint64
	tx           []trace.Transaction
}

// request sends one line to L2: a fill read, a write-through of a bypassed
// L1 write miss, or an L1 writeback (dirty).
func (h *refHierarchy) request(lineAddr uint64, dirty bool) {
	hit, victim := h.l2.access(lineAddr, dirty, true)
	if victim.dirty {
		h.tx = append(h.tx, trace.Transaction{Addr: victim.addr, Write: true, Cycle: h.lineRefs})
	}
	if !hit {
		h.tx = append(h.tx, trace.Transaction{Addr: lineAddr, Cycle: h.lineRefs})
	}
}

func (h *refHierarchy) access(a trace.Access) {
	ls := h.l1.lineSize
	last := a.Addr
	if a.Size > 0 {
		last = a.Addr + uint64(a.Size) - 1
	}
	for line := a.Addr / ls * ls; line <= last/ls*ls; line += ls {
		h.lineRefs++
		write := a.Op == trace.Write
		hit, victim := h.l1.access(line, write, !write || h.l1WriteAlloc)
		if victim.dirty {
			h.request(victim.addr, true)
		}
		if !hit {
			// A miss that filled L1 asks L2 for the line; a write that
			// bypassed L1 hands L2 the dirty data.
			h.request(line, write && !h.l1WriteAlloc)
		}
	}
}

func (h *refHierarchy) drain() {
	for _, row := range h.l1.ways {
		for w := range row {
			if row[w].valid && row[w].dirty {
				h.request(row[w].addr, true)
				row[w].dirty = false
			}
		}
	}
	for _, row := range h.l2.ways {
		for w := range row {
			if row[w].valid && row[w].dirty {
				h.tx = append(h.tx, trace.Transaction{Addr: row[w].addr, Write: true, Cycle: h.lineRefs})
				row[w].dirty = false
			}
		}
	}
}

// fuzzLevel decodes one level's geometry from a byte: 1-4 ways, 1-8 sets,
// a write-allocate bit and LRU or FIFO.
func fuzzLevel(name string, b byte, lineSize int) LevelConfig {
	ways := int(b&3) + 1
	sets := 1 << (b >> 2 & 3)
	repl := LRU
	if b&0x20 != 0 {
		repl = FIFO
	}
	return LevelConfig{Name: name, SizeBytes: ways * sets * lineSize, Ways: ways, LineSize: lineSize,
		WriteAllocate: b&0x10 != 0, Replacement: repl}
}

// FuzzHierarchyMatchesReference drives the simulator and the reference
// model with the same fuzzed geometry and access stream, then drains
// both: every level's hits, misses, evictions and writebacks, and the
// emitted transaction stream, cycles included, must be identical.
func FuzzHierarchyMatchesReference(f *testing.F) {
	f.Add([]byte{0x05, 0x1b, 0, 0x00, 0x10, 8, 0x81, 0x40, 0x00, 3})
	f.Add([]byte{0x2f, 0x3e, 1, 0x08, 0x00, 200, 0x01, 0xf8, 0x01, 0, 0x09, 0x00, 4})
	f.Add([]byte{0x00, 0x00, 2, 0xff, 0xff, 16, 0x00, 0x00, 1, 0x40, 0x00, 8, 0x80, 0x00, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		lineSize := 8 << (data[2] % 4)
		cfg := Config{L1: fuzzLevel("L1", data[0], lineSize), L2: fuzzLevel("L2", data[1], lineSize)}
		var sink captureSink
		h, err := New(cfg, &sink)
		if err != nil {
			t.Fatalf("fuzzed geometry %+v rejected: %v", cfg, err)
		}
		ref := &refHierarchy{l1: newRefLevel(cfg.L1), l2: newRefLevel(cfg.L2), l1WriteAlloc: cfg.L1.WriteAllocate}
		// Three bytes per reference: a 15-bit address (so lines collide),
		// the op in the top bit, and a size of up to 255 bytes.
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			a := trace.Access{Addr: uint64(rest[0]) | uint64(rest[1]&0x7f)<<8, Size: rest[2]}
			if rest[1]&0x80 != 0 {
				a.Op = trace.Write
			}
			h.Access(a)
			ref.access(a)
		}
		if err := h.Drain(); err != nil {
			t.Fatal(err)
		}
		ref.drain()
		if got, want := h.L1Stats(), ref.l1.stats; got != want {
			t.Errorf("L1 stats %+v, reference %+v", got, want)
		}
		if got, want := h.L2Stats(), ref.l2.stats; got != want {
			t.Errorf("L2 stats %+v, reference %+v", got, want)
		}
		if !reflect.DeepEqual(sink.txs, ref.tx) {
			t.Errorf("transaction stream differs: %d transactions, reference %d\n got %v\nwant %v",
				len(sink.txs), len(ref.tx), sink.txs, ref.tx)
		}
	})
}
