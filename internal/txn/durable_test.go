package txn

import (
	"errors"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/mvcc"
	"remus/internal/wal"
)

// blockingBackend is a wal.Backend whose Sync blocks: entered closes when
// the first Sync starts, and every Sync returns once release is closed.
type blockingBackend struct {
	entered, release chan struct{}
	once             sync.Once
}

func newBlockingBackend() *blockingBackend {
	return &blockingBackend{entered: make(chan struct{}), release: make(chan struct{})}
}

func (b *blockingBackend) Append(wal.Record) error { return nil }
func (b *blockingBackend) Retire(wal.LSN)          {}
func (b *blockingBackend) Close() error            { return nil }

func (b *blockingBackend) Sync() error {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return nil
}

// startBlockedCommit inserts "k" = "v" and commits it in the background on a
// WAL whose fsync blocks, returning once the commit is inside its sync.
func startBlockedCommit(t *testing.T, f *fixture) (w *Txn, be *blockingBackend, committed <-chan error) {
	t.Helper()
	be = newBlockingBackend()
	f.wal.AttachBackend(be)
	w = f.mgr.Begin(0, 0)
	if err := w.Write(f.store, 1, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := w.Commit(); done <- err }()
	<-be.entered
	return w, be, done
}

// TestCommitInvisibleUntilSynced: a commit is durable before it is visible.
// A reader that starts while the committer's fsync is blocked must not see
// the new value; it prepare-waits and sees the value once the sync returns.
func TestCommitInvisibleUntilSynced(t *testing.T) {
	f := newFixture(t)
	w, be, committed := startBlockedCommit(t, f)
	if st := f.clog.Lookup(w.XID).Status; st != base.StatusPrepared {
		t.Fatalf("syncing commit's CLOG entry is %v, want prepared until the sync returns", st)
	}

	reader := f.mgr.Begin(0, 0) // snapshot above the commit timestamp
	defer reader.Abort()
	type readResult struct {
		v   base.Value
		err error
	}
	read := make(chan readResult, 1)
	go func() {
		v, err := reader.Read(f.store, "k")
		read <- readResult{v, err}
	}()
	select {
	case r := <-read:
		t.Fatalf("reader returned %q, %v while the commit record was not yet durable", r.v, r.err)
	case <-time.After(30 * time.Millisecond):
	}

	close(be.release)
	if err := <-committed; err != nil {
		t.Fatalf("commit: %v", err)
	}
	select {
	case r := <-read:
		if r.err != nil || string(r.v) != "v" {
			t.Fatalf("read after the sync = %q, %v; want v", r.v, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reader still blocked after the commit was published")
	}
}

// TestAbortCannotRevokeSyncingCommit: once a commit is decided its outcome
// is final — a third-party abort during its sync fails, and the commit
// completes.
func TestAbortCannotRevokeSyncingCommit(t *testing.T) {
	f := newFixture(t)
	w, be, committed := startBlockedCommit(t, f)
	if err := w.AbortWith(base.ErrMigrationAbort); !errors.Is(err, base.ErrTxnFinished) {
		t.Fatalf("abort of a syncing commit = %v, want ErrTxnFinished", err)
	}
	close(be.release)
	if err := <-committed; err != nil {
		t.Fatalf("commit after the failed abort: %v", err)
	}
	if f.clog.Lookup(w.XID).Status != base.StatusCommitted {
		t.Error("commit not published after the sync")
	}
}

// TestCommitPublishFaultRetry arms an error at the commit-publish site: the
// committer retries the publication (the decision is durable and final)
// and the transaction still commits.
func TestCommitPublishFaultRetry(t *testing.T) {
	f := newFixture(t)
	reg := fault.NewRegistry(1)
	reg.Arm(fault.SiteCommitPublish, fault.Action{Err: fault.ErrInjected, Once: true})
	f.mgr.SetFaults(reg)

	tx := f.mgr.Begin(0, 0)
	if err := tx.Write(f.store, 1, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("commit across a publication fault: %v", err)
	}
	if f.clog.Lookup(tx.XID).Status != base.StatusCommitted {
		t.Error("commit not published after the retry")
	}
	if got := reg.Hits(fault.SiteCommitPublish); got != 2 {
		t.Errorf("commit-publish evaluated %d times, want 2 (one failure, one retry)", got)
	}
}

// TestCommitReadOnlyLogsNothing: a transaction that only read commits at its
// snapshot without a record, a sync or a timestamp, and leaves nothing
// registered.
func TestCommitReadOnlyLogsNothing(t *testing.T) {
	f := newFixture(t)
	setup := f.mgr.Begin(0, 0)
	if err := setup.Write(f.store, 1, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	tail, syncs := f.wal.FlushLSN(), f.wal.Syncs()

	r := f.mgr.Begin(0, 0)
	if _, err := r.Read(f.store, "k"); err != nil {
		t.Fatal(err)
	}
	if err := r.CommitReadOnly(r.StartTS); err != nil {
		t.Fatal(err)
	}
	if e := f.clog.Lookup(r.XID); e.Status != base.StatusCommitted || e.CommitTS != r.StartTS {
		t.Errorf("read-only commit left %+v, want committed at its snapshot %v", e, r.StartTS)
	}
	if f.wal.FlushLSN() != tail || f.wal.Syncs() != syncs {
		t.Errorf("read-only commit logged to %v and synced %d times, want nothing",
			f.wal.FlushLSN()-tail, f.wal.Syncs()-syncs)
	}
	select {
	case <-r.Done():
	default:
		t.Error("Done still open after the read-only commit")
	}
	if n := f.mgr.ActiveCount(); n != 0 {
		t.Errorf("ActiveCount = %d after the read-only commit", n)
	}
}
