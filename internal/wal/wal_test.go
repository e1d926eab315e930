package wal

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"remus/internal/base"
)

func rec(t RecordType, xid base.XID, key string) Record {
	return Record{Type: t, XID: xid, Key: base.Key(key), Value: base.Value("v-" + key)}
}

func TestAppendAssignsDenseLSNs(t *testing.T) {
	l := New()
	for i := 1; i <= 100; i++ {
		lsn := l.Append(rec(RecInsert, 1, "k"))
		if lsn != LSN(i) {
			t.Fatalf("append %d got LSN %d", i, lsn)
		}
	}
	if l.FlushLSN() != 100 {
		t.Fatalf("FlushLSN = %d", l.FlushLSN())
	}
}

func TestGet(t *testing.T) {
	l := New()
	l.Append(rec(RecInsert, 7, "a"))
	l.Append(rec(RecCommit, 7, ""))
	r, ok := l.Get(1)
	if !ok || r.Type != RecInsert || r.XID != 7 {
		t.Fatalf("Get(1) = %+v, %v", r, ok)
	}
	if _, ok := l.Get(3); ok {
		t.Error("Get past tail succeeded")
	}
	if _, ok := l.Get(0); ok {
		t.Error("Get(0) succeeded")
	}
}

func TestReaderDrainsExisting(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(rec(RecInsert, base.XID(i+1), "k"))
	}
	r := l.NewReader(1)
	for i := 0; i < 10; i++ {
		got, err := r.Next(nil)
		if err != nil {
			t.Fatal(err)
		}
		if got.LSN != LSN(i+1) {
			t.Fatalf("record %d has LSN %d", i, got.LSN)
		}
	}
	if r.Pos() != 11 {
		t.Fatalf("Pos = %d", r.Pos())
	}
}

func TestReaderBlocksThenWakes(t *testing.T) {
	l := New()
	r := l.NewReader(1)
	got := make(chan Record, 1)
	go func() {
		rec, err := r.Next(nil)
		if err != nil {
			t.Error(err)
		}
		got <- rec
	}()
	select {
	case <-got:
		t.Fatal("Next returned on empty log")
	case <-time.After(10 * time.Millisecond):
	}
	l.Append(rec(RecInsert, 1, "x"))
	select {
	case rc := <-got:
		if rc.Key != "x" {
			t.Fatalf("got %+v", rc)
		}
	case <-time.After(time.Second):
		t.Fatal("reader did not wake")
	}
}

func TestReaderStopChannel(t *testing.T) {
	l := New()
	r := l.NewReader(1)
	stop := make(chan struct{})
	errc := make(chan error, 1)
	go func() {
		_, err := r.Next(stop)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	close(stop)
	select {
	case err := <-errc:
		if !errors.Is(err, base.ErrTimeout) {
			t.Fatalf("err = %v, want timeout", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Next did not observe stop")
	}
}

func TestReaderClosedLog(t *testing.T) {
	l := New()
	l.Append(rec(RecInsert, 1, "a"))
	l.Close()
	r := l.NewReader(1)
	if _, err := r.Next(nil); err != nil {
		t.Fatalf("drain after close: %v", err)
	}
	if _, err := r.Next(nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestCloseWakesBlockedReader(t *testing.T) {
	l := New()
	r := l.NewReader(1)
	errc := make(chan error, 1)
	go func() {
		_, err := r.Next(nil)
		errc <- err
	}()
	time.Sleep(5 * time.Millisecond)
	l.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("close did not wake reader")
	}
}

func TestAppendAfterClosePanics(t *testing.T) {
	l := New()
	l.Close()
	defer func() {
		if recover() == nil {
			t.Error("append after close should panic")
		}
	}()
	l.Append(rec(RecInsert, 1, "a"))
}

func TestTryNext(t *testing.T) {
	l := New()
	r := l.NewReader(1)
	if _, ok, err := r.TryNext(); ok || err != nil {
		t.Fatalf("TryNext on empty = %v, %v", ok, err)
	}
	l.Append(rec(RecInsert, 1, "a"))
	got, ok, err := r.TryNext()
	if !ok || err != nil || got.Key != "a" {
		t.Fatalf("TryNext = %+v, %v, %v", got, ok, err)
	}
	l.Close()
	if _, ok, err := r.TryNext(); ok || !errors.Is(err, ErrClosed) {
		t.Fatalf("TryNext after close = %v, %v", ok, err)
	}
}

func TestTruncate(t *testing.T) {
	l := New()
	for i := 0; i < 10; i++ {
		l.Append(rec(RecInsert, base.XID(i+1), "k"))
	}
	l.Truncate(5)
	if _, ok := l.Get(5); ok {
		t.Error("truncated record still readable")
	}
	if r, ok := l.Get(6); !ok || r.XID != 6 {
		t.Errorf("Get(6) = %+v, %v", r, ok)
	}
	r := l.NewReader(3)
	if _, err := r.Next(nil); !errors.Is(err, ErrTruncated) {
		t.Error("reader before truncation point should fail")
	}
	if _, _, err := l.NewReader(3).TryNext(); !errors.Is(err, ErrTruncated) {
		t.Error("TryNext before truncation point should fail")
	}
	// Truncate past the tail clamps.
	l.Truncate(1000)
	if l.FlushLSN() != 10 {
		t.Errorf("FlushLSN = %d after clamped truncate", l.FlushLSN())
	}
	// Truncating below first is a no-op.
	l.Truncate(1)
}

func TestNewReaderZeroMeansStart(t *testing.T) {
	l := New()
	l.Append(rec(RecInsert, 1, "a"))
	r := l.NewReader(0)
	got, err := r.Next(nil)
	if err != nil || got.LSN != 1 {
		t.Fatalf("got %+v, %v", got, err)
	}
}

func TestConcurrentAppendAndTail(t *testing.T) {
	l := New()
	const n = 5000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			l.Append(rec(RecInsert, base.XID(i+1), "k"))
		}
		l.Close()
	}()
	var got int
	go func() {
		defer wg.Done()
		r := l.NewReader(1)
		prev := LSN(0)
		for {
			rc, err := r.Next(nil)
			if errors.Is(err, ErrClosed) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
			if rc.LSN != prev+1 {
				t.Errorf("gap: %d after %d", rc.LSN, prev)
				return
			}
			prev = rc.LSN
			got++
		}
	}()
	wg.Wait()
	if got != n {
		t.Fatalf("tailed %d records, want %d", got, n)
	}
}

func TestBytesAccounting(t *testing.T) {
	l := New()
	r := rec(RecInsert, 1, "abc")
	l.Append(r)
	if l.Bytes() != uint64(r.Size()) {
		t.Errorf("Bytes = %d, want %d", l.Bytes(), r.Size())
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	in := Record{
		LSN: 42, Type: RecPrepare, XID: 9, Txn: base.MakeTxnID(3, 77),
		Table: 2, Shard: 11, Key: base.Key("k\x00ey"), Value: base.Value("payload"),
		CommitTS: 100, StartTS: 90, Validation: true,
	}
	buf := Encode(nil, &in)
	if len(buf) != EncodedSize(&in) {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(buf), EncodedSize(&in))
	}
	out, rest, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestEncodeDecodeProperty(t *testing.T) {
	f := func(typ uint8, xid, txn uint64, table, shard int32, key, value []byte, cts, sts uint64, val bool) bool {
		in := Record{
			LSN: 1, Type: RecordType(typ), XID: base.XID(xid), Txn: base.TxnID(txn),
			Table: base.TableID(table), Shard: base.ShardID(shard),
			Key: base.Key(key), CommitTS: base.Timestamp(cts), StartTS: base.Timestamp(sts),
			Validation: val,
		}
		if len(value) > 0 {
			in.Value = base.Value(value)
		}
		out, rest, err := Decode(Encode(nil, &in))
		return err == nil && len(rest) == 0 && reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDecodeBatch(t *testing.T) {
	recs := []Record{
		{LSN: 1, Type: RecInsert, XID: 1, Key: "a", Value: base.Value("1")},
		{LSN: 2, Type: RecDelete, XID: 1, Key: "b"},
		{LSN: 3, Type: RecCommit, XID: 1, CommitTS: 5},
	}
	out, err := DecodeBatch(EncodeBatch(recs))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, out) {
		t.Fatalf("batch round trip mismatch:\n%+v\n%+v", recs, out)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 2, 3}); err == nil {
		t.Error("short buffer must fail")
	}
	good := Encode(nil, &Record{Type: RecInsert, Key: "abcdef", Value: base.Value("xyz")})
	if _, _, err := Decode(good[:headerSize+6]); err == nil {
		t.Error("truncated key must fail")
	}
	if _, _, err := Decode(good[:len(good)-1]); err == nil {
		t.Error("truncated value must fail")
	}
	if _, err := DecodeBatch(good[:len(good)-1]); err == nil {
		t.Error("bad batch must fail")
	}
}

func TestRecordTypeStrings(t *testing.T) {
	types := []RecordType{RecInsert, RecUpdate, RecDelete, RecLock, RecPrepare,
		RecCommit, RecAbort, RecCommitPrepared, RecRollbackPrepared, RecordType(99)}
	for _, typ := range types {
		if typ.String() == "" {
			t.Errorf("empty string for %d", typ)
		}
	}
	if !RecInsert.IsChange() || !RecLock.IsChange() {
		t.Error("insert/lock are change records")
	}
	if RecCommit.IsChange() || RecPrepare.IsChange() {
		t.Error("commit/prepare are not change records")
	}
}

// TestSyncAccounting pins the sync model the commit path depends on: SyncTo
// covers the whole tail, returns at once when an earlier sync already
// covers the position, Syncs counts only the fsyncs actually issued, and
// SyncedLSN tracks the highest covered position.
func TestSyncAccounting(t *testing.T) {
	l := New()
	be := &countingBackend{}
	l.AttachBackend(be)
	check := func(what string, syncs uint64, synced LSN) {
		t.Helper()
		if l.Syncs() != syncs || be.syncs != syncs || l.SyncedLSN() != synced {
			t.Fatalf("%s: Syncs()=%d backend fsyncs=%d SyncedLSN()=%v, want %d/%d/%v",
				what, l.Syncs(), be.syncs, l.SyncedLSN(), syncs, syncs, synced)
		}
	}
	check("fresh log", 0, 0)

	// An empty log is covered already: nothing to sync.
	if got := l.SyncTo(0); got != 0 {
		t.Fatalf("SyncTo(0) on empty log returned %v, want 0", got)
	}
	check("empty-log sync", 0, 0)

	a := l.Append(rec(RecInsert, 1, "a"))
	b := l.Append(rec(RecCommit, 1, "b"))
	if got := l.SyncTo(a); got != b {
		t.Fatalf("SyncTo(%v) returned %v, want the whole tail %v", a, got, b)
	}
	check("first sync", 1, b)

	// b rode along in a's sync: covering it again costs no fsync.
	if got := l.SyncTo(b); got != b {
		t.Fatalf("covered SyncTo returned %v, want %v", got, b)
	}
	check("covered sync", 1, b)

	c := l.Append(rec(RecUpdate, 2, "c"))
	check("append", 1, b)
	if got := l.SyncTo(c); got != c {
		t.Fatalf("SyncTo after append returned %v, want %v", got, c)
	}
	check("final", 2, c)
}

// countingBackend is a Backend that only counts fsyncs.
type countingBackend struct{ syncs uint64 }

func (b *countingBackend) Append(Record) error { return nil }
func (b *countingBackend) Sync() error         { b.syncs++; return nil }
func (b *countingBackend) Retire(LSN)          {}
func (b *countingBackend) Close() error        { return nil }
