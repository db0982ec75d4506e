package trace

import (
	"bytes"
	"io"
	"reflect"
	"testing"
)

// maxFuzzRecords bounds how many records one fuzz input may decode, so a
// small gzip input that inflates to a huge stream stays cheap.
const maxFuzzRecords = 1 << 12

// FuzzNewReader hardens the trace-file intake (nvpower replay, nvtrace):
// no input panics the reader, and every record it returns survives a
// Writer → Reader round trip unchanged.
func FuzzNewReader(f *testing.F) {
	accesses := []Access{{Addr: 0x1000, Size: 8, Op: Read}, {Addr: 0xdeadbeef, Size: 255, Op: Write}}
	txs := []Transaction{{Addr: 0x40, Cycle: 7}, {Addr: 0x1fc0, Write: true, Cycle: 1 << 40}}
	for _, compressed := range []bool{false, true} {
		f.Add(encodeAccesses(f, accesses, compressed))
		f.Add(encodeTransactions(f, txs, compressed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		kind, accesses, txs, err := decodeAll(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc []byte
		if kind == KindAccess {
			enc = encodeAccesses(t, accesses, false)
		} else {
			enc = encodeTransactions(t, txs, false)
		}
		kind2, accesses2, txs2, err := decodeAll(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded trace does not decode: %v", err)
		}
		if kind2 != kind || !reflect.DeepEqual(accesses2, accesses) || !reflect.DeepEqual(txs2, txs) {
			t.Fatalf("round trip changed the records: kind %d→%d, %d→%d accesses, %d→%d transactions",
				kind, kind2, len(accesses), len(accesses2), len(txs), len(txs2))
		}
	})
}

// decodeAll reads up to maxFuzzRecords records of the stream's kind.  A
// malformed record ends the stream; the records before it are kept.
func decodeAll(r io.Reader) (kind uint8, accesses []Access, txs []Transaction, err error) {
	rd, err := NewReader(r)
	if err != nil {
		return 0, nil, nil, err
	}
	for i := 0; i < maxFuzzRecords; i++ {
		if rd.Kind() == KindAccess {
			a, err := rd.ReadAccess()
			if err != nil {
				break
			}
			accesses = append(accesses, a)
		} else {
			tx, err := rd.ReadTransaction()
			if err != nil {
				break
			}
			txs = append(txs, tx)
		}
	}
	return rd.Kind(), accesses, txs, nil
}

func encodeAccesses(tb testing.TB, accesses []Access, compressed bool) []byte {
	var buf bytes.Buffer
	newWriter := NewAccessWriter
	if compressed {
		newWriter = NewCompressedAccessWriter
	}
	w := newWriter(&buf)
	if err := w.Flush(accesses); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func encodeTransactions(tb testing.TB, txs []Transaction, compressed bool) []byte {
	var buf bytes.Buffer
	newWriter := NewTransactionWriter
	if compressed {
		newWriter = NewCompressedTransactionWriter
	}
	w := newWriter(&buf)
	if err := w.FlushTx(txs); err != nil {
		tb.Fatal(err)
	}
	if err := w.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}
