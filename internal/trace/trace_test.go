package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
	"testing/quick"
)

func TestOpString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatalf("Op strings wrong: %v %v", Read, Write)
	}
	if got := Op(9).String(); got != "Op(9)" {
		t.Fatalf("unknown op string = %q", got)
	}
}

func TestSegmentString(t *testing.T) {
	cases := map[Segment]string{
		SegGlobal: "global", SegHeap: "heap", SegStack: "stack", SegUnknown: "unknown",
	}
	for seg, want := range cases {
		if got := seg.String(); got != want {
			t.Errorf("Segment(%d).String() = %q, want %q", seg, got, want)
		}
	}
}

func TestAccessHelpers(t *testing.T) {
	a := Access{Addr: 100, Size: 8, Op: Write}
	if !a.IsWrite() {
		t.Error("IsWrite should be true for Write op")
	}
	if a.End() != 108 {
		t.Errorf("End = %d, want 108", a.End())
	}
	r := Access{Addr: 0, Size: 1, Op: Read}
	if r.IsWrite() {
		t.Error("IsWrite should be false for Read op")
	}
}

// contract pins the staging-buffer contract for one event type; mk builds
// the i-th event, distinct for every i.
type contract[E comparable] struct {
	mk func(i int) E
}

// bufferContract is contract at any event type, so one table can hold all
// of them.
type bufferContract interface {
	batches(t *testing.T)
	closeEmpty(t *testing.T)
	defaultSize(t *testing.T)
	sticky(t *testing.T)
	nilSafe(t *testing.T)
}

// bufferCases lists every event type the dataflow stages.
var bufferCases = []struct {
	name string
	c    bufferContract
}{
	{"access", contract[Access]{func(i int) Access {
		return Access{Addr: uint64(i), Size: 8, Op: Op(i % 2)}
	}}},
	{"transaction", contract[Transaction]{func(i int) Transaction {
		return Transaction{Addr: uint64(i) * 64, Write: i%2 == 0, Cycle: uint64(i)}
	}}},
	{"perf", contract[PerfEvent]{func(i int) PerfEvent {
		return PerfEvent{Gap: uint64(i), Access: Access{Addr: uint64(i), Size: 4}}
	}}},
}

// forEachEventType runs check once per event type as a subtest.
func forEachEventType(t *testing.T, check func(bufferContract, *testing.T)) {
	for _, tc := range bufferCases {
		t.Run(tc.name, func(t *testing.T) { check(tc.c, t) })
	}
}

func TestBufferFlushesInBatches(t *testing.T) { forEachEventType(t, bufferContract.batches) }
func TestBufferCloseEmpty(t *testing.T)       { forEachEventType(t, bufferContract.closeEmpty) }
func TestBufferDefaultSize(t *testing.T)      { forEachEventType(t, bufferContract.defaultSize) }
func TestBufferStickyError(t *testing.T)      { forEachEventType(t, bufferContract.sticky) }
func TestBufferNilIsHealthy(t *testing.T)     { forEachEventType(t, bufferContract.nilSafe) }

func (c contract[E]) batches(t *testing.T) {
	var got []E
	b := NewBuffer(func(batch []E) error {
		got = append(got, batch...)
		return nil
	}, 4)
	for i := 0; i < 10; i++ {
		b.Add(c.mk(i))
	}
	if len(got) != 8 {
		t.Fatalf("before close: delivered %d events, want 8 (two full batches)", len(got))
	}
	if b.Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2", b.Flushes)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || b.Flushes != 3 {
		t.Fatalf("after close: delivered %d events in %d flushes, want 10 in 3", len(got), b.Flushes)
	}
	for i, e := range got {
		if e != c.mk(i) {
			t.Fatalf("event %d = %+v, want %+v; order not preserved", i, e, c.mk(i))
		}
	}
}

func (c contract[E]) closeEmpty(t *testing.T) {
	calls := 0
	b := NewBuffer(func([]E) error { calls++; return nil }, 8)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if calls != 0 || b.Flushes != 0 {
		t.Fatalf("empty buffer flushed: %d sink calls, Flushes = %d", calls, b.Flushes)
	}
}

func (c contract[E]) defaultSize(t *testing.T) {
	b := NewBuffer(func([]E) error { return nil }, 0)
	if cap(b.buf) != DefaultBufferSize {
		t.Fatalf("default buffer size = %d, want %d", cap(b.buf), DefaultBufferSize)
	}
}

func (c contract[E]) sticky(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	b := NewBuffer(func([]E) error { calls++; return boom }, 1)
	for i := 0; i < 3; i++ {
		b.Add(c.mk(i))
	}
	if b.Err() != boom {
		t.Fatalf("Err = %v, want boom", b.Err())
	}
	if err := b.Close(); err != boom {
		t.Fatalf("Close error = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times, want 1 (a failed sink must never be called again)", calls)
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2 (the failing batch is not counted)", b.Dropped())
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips())
	}
}

func (c contract[E]) nilSafe(t *testing.T) {
	var b *Buffer[E]
	if b.Err() != nil || b.Close() != nil || b.Dropped() != 0 || b.Trips() != 0 {
		t.Fatal("a nil buffer must read as a healthy empty one")
	}
}

// The TxBuffer tests pin the transaction stage as the cache hierarchy
// wires it: a Buffer[Transaction] draining into a TxSink's FlushTx.

func TestTxBufferFlushesInBatches(t *testing.T) {
	var got []Transaction
	var sink TxSink = TxSinkFunc(func(batch []Transaction) error {
		got = append(got, batch...)
		return nil
	})
	b := NewBuffer(sink.FlushTx, 4)
	for i := 0; i < 10; i++ {
		b.Add(Transaction{Addr: uint64(i), Write: i%2 == 0, Cycle: uint64(i)})
	}
	if len(got) != 8 {
		t.Fatalf("before close: delivered %d transactions, want 8 (two full batches)", len(got))
	}
	if b.Flushes != 2 {
		t.Fatalf("Flushes = %d, want 2", b.Flushes)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("after Close: delivered %d transactions, want 10", len(got))
	}
	for i, tx := range got {
		if tx.Addr != uint64(i) || tx.Cycle != uint64(i) {
			t.Fatalf("transaction %d = %+v; order not preserved", i, tx)
		}
	}
}

func TestTxBufferDefaultSize(t *testing.T) {
	var sink TxSink = TxSinkFunc(func([]Transaction) error { return nil })
	b := NewBuffer(sink.FlushTx, DefaultTxBufferSize)
	if cap(b.buf) != DefaultTxBufferSize {
		t.Fatalf("tx buffer size = %d, want %d", cap(b.buf), DefaultTxBufferSize)
	}
	if DefaultTxBufferSize >= DefaultBufferSize {
		t.Fatalf("DefaultTxBufferSize = %d, want below the access batch %d (the post-cache stream is thinner)",
			DefaultTxBufferSize, DefaultBufferSize)
	}
}

func TestTxBufferStickyError(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	var sink TxSink = TxSinkFunc(func([]Transaction) error {
		calls++
		return boom
	})
	b := NewBuffer(sink.FlushTx, 1)
	b.Add(Transaction{})
	b.Add(Transaction{})
	b.Add(Transaction{})
	if b.Err() != boom {
		t.Fatal("expected sticky error")
	}
	if err := b.Close(); err != boom {
		t.Fatalf("Close error = %v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("sink called %d times, want 1 (a failed sink must not be retried)", calls)
	}
	if b.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", b.Dropped())
	}
	if b.Trips() != 1 {
		t.Fatalf("Trips = %d, want 1", b.Trips())
	}
}

func TestStats(t *testing.T) {
	var s Stats
	s.Observe(Access{Size: 8, Op: Read})
	s.Observe(Access{Size: 8, Op: Read})
	s.Observe(Access{Size: 4, Op: Write})
	if s.Reads != 2 || s.Writes != 1 {
		t.Fatalf("counts = %d/%d, want 2/1", s.Reads, s.Writes)
	}
	if s.BytesRead != 16 || s.BytesWrite != 4 {
		t.Fatalf("bytes = %d/%d, want 16/4", s.BytesRead, s.BytesWrite)
	}
	if s.Total() != 3 {
		t.Fatalf("Total = %d, want 3", s.Total())
	}
	if got := s.ReadWriteRatio(); got != 2 {
		t.Fatalf("ratio = %v, want 2", got)
	}
}

func TestStatsReadOnlyRatio(t *testing.T) {
	var s Stats
	if s.ReadWriteRatio() != 0 {
		t.Fatal("empty stats should have ratio 0")
	}
	s.Observe(Access{Size: 8, Op: Read})
	s.Observe(Access{Size: 8, Op: Read})
	if got := s.ReadWriteRatio(); got != 2 {
		t.Fatalf("read-only ratio should equal read count, got %v", got)
	}
}

func TestStatsAsSink(t *testing.T) {
	var s Stats
	b := NewBuffer(s.Flush, 3)
	for i := 0; i < 7; i++ {
		op := Read
		if i%2 == 1 {
			op = Write
		}
		b.Add(Access{Size: 1, Op: op})
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Reads != 4 || s.Writes != 3 {
		t.Fatalf("stats %d/%d, want 4/3", s.Reads, s.Writes)
	}
}

func TestAccessRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewAccessWriter(&buf)
	in := []Access{
		{Addr: 0, Size: 1, Op: Read},
		{Addr: 0xdeadbeef, Size: 8, Op: Write},
		{Addr: 1<<48 - 1, Size: 64, Op: Read},
	}
	for _, a := range in {
		if err := w.WriteAccess(a); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(in)) {
		t.Fatalf("Count = %d, want %d", w.Count(), len(in))
	}

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != KindAccess {
		t.Fatalf("Kind = %d, want KindAccess", r.Kind())
	}
	for i, want := range in {
		got, err := r.ReadAccess()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.ReadAccess(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestTransactionRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewTransactionWriter(&buf)
	in := []Transaction{
		{Addr: 0x1000, Write: false, Cycle: 10},
		{Addr: 0x2040, Write: true, Cycle: 99999},
	}
	for _, tr := range in {
		if err := w.WriteTransaction(tr); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Kind() != KindTransaction {
		t.Fatalf("Kind = %d, want KindTransaction", r.Kind())
	}
	for i, want := range in {
		got, err := r.ReadTransaction()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("record %d = %+v, want %+v", i, got, want)
		}
	}
	if _, err := r.ReadTransaction(); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	w := NewAccessWriter(&buf)
	if err := w.WriteTransaction(Transaction{}); err == nil {
		t.Fatal("WriteTransaction on access writer should fail")
	}
	if err := w.WriteAccess(Access{Size: 1}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadTransaction(); err == nil {
		t.Fatal("ReadTransaction on access stream should fail")
	}
}

func TestEmptyTraceHasHeader(t *testing.T) {
	var buf bytes.Buffer
	w := NewAccessWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAccess(); err != io.EOF {
		t.Fatalf("want EOF on empty trace, got %v", err)
	}
}

func TestBadHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("BOGUS123"))); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad magic: err = %v, want ErrBadTrace", err)
	}
	if _, err := NewReader(bytes.NewReader([]byte("NV"))); err == nil {
		t.Fatal("short header should error")
	}
	bad := []byte("NVSC\x63\x01\x00\x00") // wrong version
	if _, err := NewReader(bytes.NewReader(bad)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad version: err = %v, want ErrBadTrace", err)
	}
	badKind := []byte("NVSC\x01\x07\x00\x00")
	if _, err := NewReader(bytes.NewReader(badKind)); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad kind: err = %v, want ErrBadTrace", err)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewAccessWriter(&buf)
	if err := w.WriteAccess(Access{Addr: 1, Size: 8}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-3]
	r, err := NewReader(bytes.NewReader(trunc))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAccess(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("truncated record: err = %v, want ErrBadTrace", err)
	}
}

func TestBadOpRecord(t *testing.T) {
	var buf bytes.Buffer
	w := NewAccessWriter(&buf)
	if err := w.WriteAccess(Access{Addr: 1, Size: 8, Op: Read}); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 7 // corrupt the op byte
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadAccess(); !errors.Is(err, ErrBadTrace) {
		t.Fatalf("bad op: err = %v, want ErrBadTrace", err)
	}
}

// Property: encode→decode is the identity on access streams.
func TestQuickAccessRoundTrip(t *testing.T) {
	f := func(addrs []uint64, sizes []uint8, writes []bool) bool {
		n := len(addrs)
		if len(sizes) < n {
			n = len(sizes)
		}
		if len(writes) < n {
			n = len(writes)
		}
		in := make([]Access, n)
		for i := 0; i < n; i++ {
			op := Read
			if writes[i] {
				op = Write
			}
			in[i] = Access{Addr: addrs[i], Size: sizes[i], Op: op}
		}
		var buf bytes.Buffer
		w := NewAccessWriter(&buf)
		for _, a := range in {
			if err := w.WriteAccess(a); err != nil {
				return false
			}
		}
		if err := w.Close(); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		for _, want := range in {
			got, err := r.ReadAccess()
			if err != nil || got != want {
				return false
			}
		}
		_, err = r.ReadAccess()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Stats totals equal the sum of per-op counts regardless of stream.
func TestQuickStatsConsistency(t *testing.T) {
	f := func(ops []bool, sizes []uint8) bool {
		n := len(ops)
		if len(sizes) < n {
			n = len(sizes)
		}
		var s Stats
		var reads, writes uint64
		for i := 0; i < n; i++ {
			op := Read
			if ops[i] {
				op = Write
				writes++
			} else {
				reads++
			}
			s.Observe(Access{Size: sizes[i], Op: op})
		}
		return s.Reads == reads && s.Writes == writes && s.Total() == reads+writes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
