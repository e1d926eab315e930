package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/clog"
)

// harness couples a store with a CLOG and a toy timestamp counter.
type harness struct {
	cl *clog.CLOG
	st *Store
	ts base.Timestamp
}

func newHarness(t *testing.T) *harness {
	t.Helper()
	cl := clog.New()
	cl.Begin(FrozenXID)
	if err := cl.SetCommitted(FrozenXID, base.TsBootstrap); err != nil {
		t.Fatal(err)
	}
	return &harness{cl: cl, st: NewStore(cl, DefaultConfig()), ts: 10}
}

func (h *harness) tick() base.Timestamp { h.ts++; return h.ts }

// commitWrite performs a full write-and-commit of one key by a fresh xid.
func (h *harness) commitWrite(t *testing.T, xid base.XID, kind WriteKind, key, value string, start base.Timestamp) base.Timestamp {
	t.Helper()
	h.cl.Begin(xid)
	err := h.st.Write(WriteReq{Kind: kind, Key: base.Key(key), Value: base.Value(value), XID: xid, StartTS: start})
	if err != nil {
		t.Fatalf("write %v %q by %v: %v", kind, key, xid, err)
	}
	if err := h.cl.SetPrepared(xid); err != nil {
		t.Fatal(err)
	}
	cts := h.tick()
	if err := h.cl.SetCommitted(xid, cts); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(xid)
	return cts
}

func TestReadOwnWrites(t *testing.T) {
	h := newHarness(t)
	h.cl.Begin(2)
	snap := h.tick()
	if err := h.st.Write(WriteReq{Kind: WriteInsert, Key: "k", Value: base.Value("mine"), XID: 2, StartTS: snap}); err != nil {
		t.Fatal(err)
	}
	v, err := h.st.Read("k", snap, 2)
	if err != nil || string(v) != "mine" {
		t.Fatalf("own read = %q, %v", v, err)
	}
	// Another snapshot must not see the uncommitted write.
	if _, err := h.st.Read("k", h.tick(), 99); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("foreign read of uncommitted = %v, want not-found", err)
	}
}

func TestSnapshotVisibility(t *testing.T) {
	h := newHarness(t)
	before := h.tick()
	cts := h.commitWrite(t, 2, WriteInsert, "k", "v1", before)
	// Snapshot taken before the commit must not see it.
	if _, err := h.st.Read("k", before, 0); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("pre-commit snapshot sees the write: %v", err)
	}
	// Snapshot at/after the commit timestamp sees it.
	v, err := h.st.Read("k", cts, 0)
	if err != nil || string(v) != "v1" {
		t.Fatalf("read at commit ts = %q, %v", v, err)
	}
}

func TestOlderSnapshotReadsOlderVersion(t *testing.T) {
	h := newHarness(t)
	cts1 := h.commitWrite(t, 2, WriteInsert, "k", "v1", h.tick())
	cts2 := h.commitWrite(t, 3, WriteUpdate, "k", "v2", h.tick())
	v, err := h.st.Read("k", cts1, 0)
	if err != nil || string(v) != "v1" {
		t.Fatalf("old snapshot read = %q, %v", v, err)
	}
	v, err = h.st.Read("k", cts2, 0)
	if err != nil || string(v) != "v2" {
		t.Fatalf("new snapshot read = %q, %v", v, err)
	}
}

func TestDeleteTombstone(t *testing.T) {
	h := newHarness(t)
	ctsIns := h.commitWrite(t, 2, WriteInsert, "k", "v", h.tick())
	ctsDel := h.commitWrite(t, 3, WriteDelete, "k", "", h.tick())
	if _, err := h.st.Read("k", ctsDel, 0); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("read after delete = %v", err)
	}
	if v, err := h.st.Read("k", ctsIns, 0); err != nil || string(v) != "v" {
		t.Fatalf("pre-delete snapshot = %q, %v", v, err)
	}
	// Re-insert over a tombstone is legal.
	cts2 := h.commitWrite(t, 4, WriteInsert, "k", "v2", h.tick())
	if v, err := h.st.Read("k", cts2, 0); err != nil || string(v) != "v2" {
		t.Fatalf("reinsert read = %q, %v", v, err)
	}
}

func TestDuplicateInsert(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v", h.tick())
	h.cl.Begin(3)
	err := h.st.Write(WriteReq{Kind: WriteInsert, Key: "k", Value: base.Value("x"), XID: 3, StartTS: h.tick()})
	if !errors.Is(err, base.ErrDuplicateKey) {
		t.Fatalf("err = %v, want duplicate key", err)
	}
}

func TestUpdateMissingKey(t *testing.T) {
	h := newHarness(t)
	h.cl.Begin(2)
	err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "nope", Value: base.Value("x"), XID: 2, StartTS: h.tick()})
	if !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("err = %v, want not found", err)
	}
	if err := h.st.Write(WriteReq{Kind: WriteDelete, Key: "nope", XID: 2, StartTS: h.tick()}); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("delete err = %v, want not found", err)
	}
	if err := h.st.Write(WriteReq{Kind: WriteLock, Key: "nope", XID: 2, StartTS: h.tick()}); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("lock err = %v, want not found", err)
	}
}

func TestFirstUpdaterWins(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v0", h.tick())
	// Txn 3 snapshots now; txn 4 updates and commits after that snapshot.
	snap3 := h.tick()
	h.commitWrite(t, 4, WriteUpdate, "k", "v4", h.tick())
	// Txn 3 now tries to update from its stale snapshot: WW-conflict.
	h.cl.Begin(3)
	err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("v3"), XID: 3, StartTS: snap3})
	if !errors.Is(err, base.ErrWWConflict) {
		t.Fatalf("err = %v, want ww-conflict", err)
	}
}

func TestWWConflictOnExplicitLock(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v0", h.tick())
	snap := h.tick()
	h.commitWrite(t, 4, WriteUpdate, "k", "v4", h.tick())
	h.cl.Begin(3)
	err := h.st.Write(WriteReq{Kind: WriteLock, Key: "k", XID: 3, StartTS: snap})
	if !errors.Is(err, base.ErrWWConflict) {
		t.Fatalf("lock err = %v, want ww-conflict", err)
	}
}

func TestWriterBlocksOnRowLockThenConflicts(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v0", h.tick())
	// Txn 3 writes k and stays open.
	h.cl.Begin(3)
	snap3 := h.tick()
	if err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("v3"), XID: 3, StartTS: snap3}); err != nil {
		t.Fatal(err)
	}
	// Txn 4 attempts the same row; it must block, then fail with a
	// ww-conflict after 3 commits.
	h.cl.Begin(4)
	snap4 := h.tick()
	errc := make(chan error, 1)
	go func() {
		errc <- h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("v4"), XID: 4, StartTS: snap4})
	}()
	select {
	case err := <-errc:
		t.Fatalf("second writer did not block: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := h.cl.SetPrepared(3); err != nil {
		t.Fatal(err)
	}
	cts := h.tick()
	if err := h.cl.SetCommitted(3, cts); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(3)
	if err := <-errc; !errors.Is(err, base.ErrWWConflict) {
		t.Fatalf("blocked writer err = %v, want ww-conflict", err)
	}
}

func TestWriterBlocksThenProceedsAfterAbort(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v0", h.tick())
	h.cl.Begin(3)
	if err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("v3"), XID: 3, StartTS: h.tick()}); err != nil {
		t.Fatal(err)
	}
	h.cl.Begin(4)
	snap4 := h.tick()
	errc := make(chan error, 1)
	go func() {
		errc <- h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("v4"), XID: 4, StartTS: snap4})
	}()
	time.Sleep(10 * time.Millisecond)
	if err := h.cl.SetAborted(3); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(3)
	if err := <-errc; err != nil {
		t.Fatalf("writer after abort: %v", err)
	}
}

func TestPrepareWaitOnRead(t *testing.T) {
	h := newHarness(t)
	// Txn 2 inserts and reaches prepared.
	h.cl.Begin(2)
	if err := h.st.Write(WriteReq{Kind: WriteInsert, Key: "k", Value: base.Value("v"), XID: 2, StartTS: h.tick()}); err != nil {
		t.Fatal(err)
	}
	if err := h.cl.SetPrepared(2); err != nil {
		t.Fatal(err)
	}
	snap := h.tick() // snapshot after prepare; commit ts will be below it
	got := make(chan string, 1)
	go func() {
		v, err := h.st.Read("k", snap, 0)
		if err != nil {
			got <- "err:" + err.Error()
			return
		}
		got <- string(v)
	}()
	select {
	case v := <-got:
		t.Fatalf("read did not prepare-wait, returned %q", v)
	case <-time.After(20 * time.Millisecond):
	}
	cts := h.tick()
	_ = cts
	// Commit with a timestamp BELOW the reader's snapshot so the version is
	// visible once the wait resolves.
	if err := h.cl.SetCommitted(2, snap-1); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(2)
	select {
	case v := <-got:
		if v != "v" {
			t.Fatalf("post-wait read = %q", v)
		}
	case <-time.After(time.Second):
		t.Fatal("reader stuck after commit")
	}
}

// TestDecidedAboveSnapshotSkipsWait: a decided writer commits at its
// decided timestamp whatever happens, so a reader whose snapshot is below
// it reads the older version at once, while a reader above it still
// prepare-waits for the publication.
func TestDecidedAboveSnapshotSkipsWait(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "old", h.tick())
	below := h.tick()
	ref := h.cl.Begin(3)
	if err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("new"), XID: 3, StartTS: below, Ref: ref}); err != nil {
		t.Fatal(err)
	}
	cts := h.tick()
	if err := ref.SetPrepared(); err != nil {
		t.Fatal(err)
	}
	if err := ref.SetDecided(cts); err != nil {
		t.Fatal(err)
	}
	if v, err := h.st.Read("k", below, 0); err != nil || string(v) != "old" {
		t.Fatalf("read below the decided timestamp = %q, %v; want old without waiting", v, err)
	}
	above := h.tick()
	got := make(chan string, 1)
	go func() {
		v, _ := h.st.Read("k", above, 0)
		got <- string(v)
	}()
	select {
	case v := <-got:
		t.Fatalf("read above the decided timestamp returned %q before the publication", v)
	case <-time.After(20 * time.Millisecond):
	}
	if err := ref.SetCommitted(cts); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(3)
	if v := <-got; v != "new" {
		t.Fatalf("read above the decided timestamp after publication = %q, want new", v)
	}
}

func TestPrepareWaitAbortedWriterInvisible(t *testing.T) {
	h := newHarness(t)
	h.cl.Begin(2)
	if err := h.st.Write(WriteReq{Kind: WriteInsert, Key: "k", Value: base.Value("v"), XID: 2, StartTS: h.tick()}); err != nil {
		t.Fatal(err)
	}
	if err := h.cl.SetPrepared(2); err != nil {
		t.Fatal(err)
	}
	snap := h.tick()
	errc := make(chan error, 1)
	go func() {
		_, err := h.st.Read("k", snap, 0)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond)
	if err := h.cl.SetAborted(2); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(2)
	if err := <-errc; !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("read of aborted writer = %v, want not-found", err)
	}
}

func TestInstallBootstrapVisibleToAll(t *testing.T) {
	h := newHarness(t)
	h.st.InstallBootstrap("k", base.Value("snap"))
	v, err := h.st.Read("k", 2, 0) // even a very old snapshot sees bootstrap
	if err != nil || string(v) != "snap" {
		t.Fatalf("bootstrap read = %q, %v", v, err)
	}
}

func TestSnapshotScanConsistency(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 50; i++ {
		h.commitWrite(t, base.XID(100+i), WriteInsert, fmt.Sprintf("k%03d", i), "v1", h.tick())
	}
	snap := h.ts
	// Concurrent updates after the snapshot must not appear in the scan.
	for i := 0; i < 50; i += 2 {
		h.commitWrite(t, base.XID(200+i), WriteUpdate, fmt.Sprintf("k%03d", i), "v2", h.tick())
	}
	count := 0
	err := h.st.SnapshotScan(snap, func(k base.Key, v base.Value) bool {
		if string(v) != "v1" {
			t.Errorf("scan at %v saw %q=%q", snap, k, v)
		}
		count++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 50 {
		t.Fatalf("scanned %d tuples, want 50", count)
	}
}

func TestScanRange(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 20; i++ {
		h.commitWrite(t, base.XID(100+i), WriteInsert, fmt.Sprintf("k%03d", i), "v", h.tick())
	}
	var keys []string
	if err := h.st.ScanRange("k005", "k010", h.ts, 0, func(k base.Key, v base.Value) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 5 || keys[0] != "k005" || keys[4] != "k009" {
		t.Fatalf("range scan = %v", keys)
	}
}

func TestScanSkipsTombstones(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "a", "v", h.tick())
	h.commitWrite(t, 3, WriteInsert, "b", "v", h.tick())
	h.commitWrite(t, 4, WriteDelete, "a", "", h.tick())
	count := 0
	if err := h.st.SnapshotScan(h.ts, func(k base.Key, v base.Value) bool {
		count++
		if k != "b" {
			t.Errorf("scan saw deleted key %q", k)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 1 {
		t.Fatalf("scanned %d, want 1", count)
	}
}

func TestScanEarlyStop(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 10; i++ {
		h.commitWrite(t, base.XID(100+i), WriteInsert, fmt.Sprintf("k%d", i), "v", h.tick())
	}
	n := 0
	if err := h.st.SnapshotScan(h.ts, func(base.Key, base.Value) bool {
		n++
		return n < 3
	}); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestVacuum(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v1", h.tick())
	for i := 0; i < 5; i++ {
		h.commitWrite(t, base.XID(10+i), WriteUpdate, "k", "vX", h.tick())
	}
	if got := h.st.ChainLength("k"); got != 6 {
		t.Fatalf("chain length = %d, want 6", got)
	}
	reclaimed := h.st.Vacuum(h.ts) // no active snapshots older than now
	if reclaimed != 5 {
		t.Fatalf("reclaimed %d, want 5", reclaimed)
	}
	if got := h.st.ChainLength("k"); got != 1 {
		t.Fatalf("chain length after vacuum = %d", got)
	}
	v, err := h.st.Read("k", h.ts, 0)
	if err != nil || string(v) != "vX" {
		t.Fatalf("read after vacuum = %q, %v", v, err)
	}
}

func TestVacuumRespectsOldSnapshot(t *testing.T) {
	h := newHarness(t)
	cts1 := h.commitWrite(t, 2, WriteInsert, "k", "v1", h.tick())
	h.commitWrite(t, 3, WriteUpdate, "k", "v2", h.tick())
	// A long-running snapshot at cts1 still needs v1.
	if n := h.st.Vacuum(cts1); n != 0 {
		t.Fatalf("vacuum reclaimed %d, want 0 (old snapshot holds versions)", n)
	}
	v, err := h.st.Read("k", cts1, 0)
	if err != nil || string(v) != "v1" {
		t.Fatalf("old snapshot read after vacuum = %q, %v", v, err)
	}
}

func TestVacuumDropsAborted(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "k", "v1", h.tick())
	h.cl.Begin(3)
	if err := h.st.Write(WriteReq{Kind: WriteUpdate, Key: "k", Value: base.Value("dead"), XID: 3, StartTS: h.tick()}); err != nil {
		t.Fatal(err)
	}
	if err := h.cl.SetAborted(3); err != nil {
		t.Fatal(err)
	}
	h.st.ReleaseLocks(3)
	if n := h.st.Vacuum(2); n != 1 {
		t.Fatalf("reclaimed %d, want 1 aborted version", n)
	}
}

func TestDropAll(t *testing.T) {
	h := newHarness(t)
	h.commitWrite(t, 2, WriteInsert, "a", "v", h.tick())
	h.commitWrite(t, 3, WriteInsert, "b", "v", h.tick())
	h.st.DropAll()
	if h.st.Keys() != 0 || h.st.Versions() != 0 {
		t.Fatalf("Keys=%d Versions=%d after DropAll", h.st.Keys(), h.st.Versions())
	}
	if _, err := h.st.Read("a", h.ts, 0); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatal("data survived DropAll")
	}
}

func TestConcurrentDisjointWriters(t *testing.T) {
	h := newHarness(t)
	const workers = 8
	var wg sync.WaitGroup
	var mu sync.Mutex // serializes CLOG Begin/commit bookkeeping in the test
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				xid := base.XID(1000 + w*100 + i)
				mu.Lock()
				h.cl.Begin(xid)
				snap := h.tick()
				mu.Unlock()
				key := fmt.Sprintf("w%d-k%d", w, i)
				if err := h.st.Write(WriteReq{Kind: WriteInsert, Key: base.Key(key), Value: base.Value("v"), XID: xid, StartTS: snap}); err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				if err := h.cl.SetPrepared(xid); err != nil {
					t.Error(err)
				}
				cts := h.tick()
				if err := h.cl.SetCommitted(xid, cts); err != nil {
					t.Error(err)
				}
				mu.Unlock()
				h.st.ReleaseLocks(xid)
			}
		}(w)
	}
	wg.Wait()
	if h.st.Keys() != workers*50 {
		t.Fatalf("Keys = %d, want %d", h.st.Keys(), workers*50)
	}
}

func TestWriteKindString(t *testing.T) {
	for _, k := range []WriteKind{WriteInsert, WriteUpdate, WriteDelete, WriteLock, WriteKind(42)} {
		if k.String() == "" {
			t.Errorf("empty string for kind %d", k)
		}
	}
}
