package txn

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/mvcc"
	"remus/internal/wal"
)

// raceRuns is how many times each race test repeats its race: enough to hit
// the narrow interleavings on two cores, fewer under -short (the race job).
func raceRuns() int {
	if testing.Short() {
		return 2000
	}
	return 50000
}

// raceBatch bounds how many runs share one fixture, so the in-memory WAL
// and store of a fixture stay small.
const raceBatch = 1000

// view names a transaction's position in the per-txn state machine; unlike
// State it tells a decided (parked) transaction from a published commit.
func view(tx *Txn) string {
	if tx.ref.Entry().Decided() {
		return "decided"
	}
	return tx.State().String()
}

// blockingGate holds Prepare inside its commit path — after the entered-
// commit bit is set, before the prepare transition — until release closes.
type blockingGate struct {
	entered chan struct{}
	release chan struct{}
}

func (g *blockingGate) NeedsValidation(*Txn) bool {
	close(g.entered)
	<-g.release
	return false
}

func (g *blockingGate) WaitValidation(*Txn) error { return nil }

// TestTransitionTable drives every per-txn state against every operation and
// checks the error returned and the state left behind, mirroring
// clog.TestIllegalTransitions one layer up.
func TestTransitionTable(t *testing.T) {
	const (
		ok       = ""
		finished = "finished" // wraps base.ErrTxnFinished
		refused  = "refused"  // some other error
	)
	errCause := errors.New("test cause")
	ops := map[string]func(tx *Txn, f *fixture) error{
		"read": func(tx *Txn, f *fixture) error {
			_, err := tx.Read(f.store, "k0")
			return err
		},
		"write": func(tx *Txn, f *fixture) error {
			return tx.Write(f.store, 1, 10, mvcc.WriteInsert, "k1", base.Value("v"))
		},
		"prepare": func(tx *Txn, f *fixture) error {
			_, err := tx.Prepare()
			return err
		},
		"commit": func(tx *Txn, f *fixture) error {
			return tx.CommitAt(f.mgr.Oracle().CommitTS(0))
		},
		"abort":           func(tx *Txn, f *fixture) error { return tx.Abort() },
		"abortWith":       func(tx *Txn, f *fixture) error { return tx.AbortWith(errCause) },
		"abortUnprepared": func(tx *Txn, f *fixture) error { return tx.AbortUnprepared(errCause) },
	}
	cases := []struct{ from, op, err, to string }{
		{"active", "read", ok, "active"},
		{"active", "write", ok, "active"},
		{"active", "prepare", ok, "prepared"},
		{"active", "commit", finished, "active"},
		{"active", "abort", ok, "aborted"},
		{"active", "abortWith", ok, "aborted"},
		{"active", "abortUnprepared", ok, "aborted"},

		{"committing", "read", finished, "committing"},
		{"committing", "write", finished, "committing"},
		{"committing", "prepare", finished, "committing"},
		{"committing", "commit", finished, "committing"},
		{"committing", "abort", ok, "aborted"},
		{"committing", "abortWith", ok, "aborted"},
		{"committing", "abortUnprepared", ok, "aborted"},

		{"prepared", "read", finished, "prepared"},
		{"prepared", "write", finished, "prepared"},
		{"prepared", "prepare", finished, "prepared"},
		{"prepared", "commit", ok, "committed"},
		{"prepared", "abort", ok, "aborted"},
		{"prepared", "abortWith", ok, "aborted"},
		{"prepared", "abortUnprepared", refused, "prepared"},

		{"decided", "read", finished, "decided"},
		{"decided", "write", finished, "decided"},
		{"decided", "prepare", finished, "decided"},
		{"decided", "commit", finished, "decided"},
		{"decided", "abort", finished, "decided"},
		{"decided", "abortWith", finished, "decided"},
		{"decided", "abortUnprepared", finished, "decided"},

		{"committed", "read", finished, "committed"},
		{"committed", "write", finished, "committed"},
		{"committed", "prepare", finished, "committed"},
		{"committed", "commit", finished, "committed"},
		{"committed", "abort", finished, "committed"},
		{"committed", "abortWith", finished, "committed"},
		{"committed", "abortUnprepared", finished, "committed"},

		{"aborted", "read", finished, "aborted"},
		{"aborted", "write", finished, "aborted"},
		{"aborted", "prepare", finished, "aborted"},
		{"aborted", "commit", finished, "aborted"},
		{"aborted", "abort", ok, "aborted"},
		{"aborted", "abortWith", ok, "aborted"},
		{"aborted", "abortUnprepared", ok, "aborted"},
	}
	for _, c := range cases {
		t.Run(c.from+"/"+c.op, func(t *testing.T) {
			f := newFixture(t)
			tx := f.mgr.Begin(0, 0)
			if err := tx.Write(f.store, 1, 10, mvcc.WriteInsert, "k0", base.Value("v")); err != nil {
				t.Fatal(err)
			}
			// settle runs after the operation: it lets a parked Prepare or
			// Commit go on and returns that call's error.
			settle := func() error { return nil }
			switch c.from {
			case "committing":
				g := &blockingGate{entered: make(chan struct{}), release: make(chan struct{})}
				f.mgr.InstallGate(g)
				prepared := make(chan error, 1)
				go func() { _, err := tx.Prepare(); prepared <- err }()
				<-g.entered
				settle = func() error { close(g.release); return <-prepared }
			case "prepared":
				if _, err := tx.Prepare(); err != nil {
					t.Fatal(err)
				}
			case "decided":
				f.mgr.SetEpoch(EpochConfig{Txns: 100, Delay: time.Minute})
				committed := make(chan error, 1)
				go func() { _, err := tx.Commit(); committed <- err }()
				for deadline := time.Now().Add(5 * time.Second); view(tx) != "decided"; time.Sleep(time.Millisecond) {
					if time.Now().After(deadline) {
						t.Fatal("commit never parked in the epoch")
					}
				}
				settle = func() error { f.mgr.FlushEpochs(); return <-committed }
			case "committed":
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case "aborted":
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			}
			if got := view(tx); got != c.from {
				t.Fatalf("set-up reached %s, want %s", got, c.from)
			}

			err := ops[c.op](tx, f)
			switch c.err {
			case ok:
				if err != nil {
					t.Errorf("%s = %v, want nil", c.op, err)
				}
			case finished:
				if !errors.Is(err, base.ErrTxnFinished) {
					t.Errorf("%s = %v, want ErrTxnFinished", c.op, err)
				}
			case refused:
				if err == nil || errors.Is(err, base.ErrTxnFinished) {
					t.Errorf("%s = %v, want a refusal", c.op, err)
				}
			}
			if got := view(tx); got != c.to {
				t.Errorf("after %s: state %s, want %s", c.op, got, c.to)
			}
			if c.from != "aborted" && c.to == "aborted" {
				// The winning abort's cause is what the session sees next.
				_, err := tx.Read(f.store, "k0")
				wantCause := c.op != "abort"
				if errors.Is(err, errCause) != wantCause || (!wantCause && !errors.Is(err, base.ErrTxnFinished)) {
					t.Errorf("read after %s = %v", c.op, err)
				}
			}

			serr := settle()
			switch {
			case c.from == "decided" && serr != nil:
				t.Errorf("parked commit failed after %s: %v", c.op, serr)
			case c.from == "committing" && (serr == nil) != (c.to == "committing"):
				t.Errorf("parked prepare after %s = %v", c.op, serr)
			}
			if st := tx.State(); st != StateCommitted && st != StateAborted {
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			}
			<-tx.Done()
			if n := f.mgr.ActiveCount(); n != 0 {
				t.Errorf("ActiveCount = %d after the txn finished", n)
			}
		})
	}
}

// checkWALOrder scans a WAL and requires, per xid: change records, then at
// most one prepare, then at most one terminal record, and nothing after it.
func checkWALOrder(t *testing.T, w *wal.Log) {
	t.Helper()
	const changes, prepared, terminal = 0, 1, 2
	phase := make(map[base.XID]int)
	for lsn := w.FirstLSN(); lsn <= w.FlushLSN(); lsn++ {
		rec, ok := w.Get(lsn)
		if !ok {
			t.Fatalf("WAL record %d missing", lsn)
		}
		p := phase[rec.XID]
		if p == terminal {
			t.Fatalf("%v record of %v at LSN %d follows its terminal record", rec.Type, rec.XID, lsn)
		}
		switch rec.Type {
		case wal.RecPrepare:
			if p != changes {
				t.Fatalf("second prepare record of %v at LSN %d", rec.XID, lsn)
			}
			phase[rec.XID] = prepared
		case wal.RecCommit:
			if p != prepared {
				t.Fatalf("commit record of unprepared %v at LSN %d", rec.XID, lsn)
			}
			phase[rec.XID] = terminal
		case wal.RecAbort:
			phase[rec.XID] = terminal
		default:
			if p != changes {
				t.Fatalf("%v record of %v at LSN %d follows its prepare record", rec.Type, rec.XID, lsn)
			}
		}
	}
}

// TestTransitionRaces races each pair of transitions that may meet on one
// transaction. Of two conflicting transitions exactly one wins: the loser
// returns an error and touches nothing, the winner runs finish once (a
// second close of Done panics). After every run no row lock is left behind;
// after every batch nothing is left registered and the WAL obeys the per-xid
// order.
func TestTransitionRaces(t *testing.T) {
	reject := &gateStub{needAll: true, reject: base.ErrWWConflict}
	wkey := func(tx *Txn) base.Key { return base.Key(fmt.Sprintf("w%d", tx.XID)) }
	prepare := func(f *fixture, tx *Txn) error { _, err := tx.Prepare(); return err }
	commit := func(f *fixture, tx *Txn) error { return tx.CommitAt(f.mgr.Oracle().CommitTS(0)) }
	abort := func(f *fixture, tx *Txn) error { return tx.Abort() }
	races := []struct {
		name     string
		epoch    bool
		gate     CommitGate
		prepared bool // the race starts from a prepared transaction
		a, b     func(f *fixture, tx *Txn) error
		// bothNil allows both calls to succeed when b may legally follow a:
		// a coordinator may abort a participant that voted yes, and a
		// session may abort after its statement returned.
		bothNil bool
	}{
		{name: "prepare/abortUnprepared", a: prepare,
			b: func(f *fixture, tx *Txn) error { return tx.AbortUnprepared(nil) }},
		{name: "prepare/abort", a: prepare, b: abort, bothNil: true},
		{name: "commit/abort", prepared: true, a: commit, b: abort},
		{name: "epochCommit/abort", epoch: true, prepared: true, a: commit, b: abort},
		{name: "rejectedPrepare/abort", gate: reject, a: prepare, b: abort},
		{name: "write/abort", b: abort, bothNil: true,
			a: func(f *fixture, tx *Txn) error {
				return tx.Write(f.store, 1, 10, mvcc.WriteInsert, wkey(tx), base.Value("v"))
			}},
	}
	runs := raceRuns()
	for _, r := range races {
		t.Run(r.name, func(t *testing.T) {
			for batch := 0; batch < runs; batch += raceBatch {
				f := newFixture(t)
				if r.epoch {
					f.mgr.SetEpoch(EpochConfig{Txns: 1})
				}
				f.mgr.InstallGate(r.gate)
				for i := batch; i < batch+raceBatch && i < runs; i++ {
					tx := f.mgr.Begin(0, 0)
					key := base.Key(fmt.Sprintf("k%d", i))
					if err := tx.Write(f.store, 1, 10, mvcc.WriteInsert, key, base.Value("v")); err != nil {
						t.Fatal(err)
					}
					if r.prepared {
						if _, err := tx.Prepare(); err != nil {
							t.Fatal(err)
						}
					}
					errB := make(chan error, 1)
					go func() { errB <- r.b(f, tx) }()
					errA := r.a(f, tx)
					eb := <-errB
					switch {
					case errA == nil && eb == nil && !r.bothNil:
						t.Fatalf("run %d: both calls returned nil; state %s", i, view(tx))
					case errA == nil && eb == nil && tx.State() != StateAborted:
						t.Fatalf("run %d: both calls returned nil but state is %s", i, view(tx))
					case errA == nil && eb != nil && tx.State() == StateAborted:
						t.Fatalf("run %d: %s won yet the txn is aborted", i, r.name)
					}
					if st := tx.State(); st != StateCommitted && st != StateAborted {
						if err := tx.Abort(); err != nil {
							t.Fatalf("run %d: finishing abort: %v", i, err)
						}
					}
					select {
					case <-tx.Done():
					default:
						t.Fatalf("run %d: Done open in state %s", i, view(tx))
					}
					for _, k := range []base.Key{key, wkey(tx)} {
						if owner := f.store.LockOwner(k); owner != base.InvalidXID {
							t.Fatalf("run %d: row lock on %q still held by %v", i, k, owner)
						}
					}
				}
				if n := f.mgr.ActiveCount(); n != 0 {
					t.Fatalf("ActiveCount = %d after the batch", n)
				}
				if unsync := f.mgr.InstallGate(nil); len(unsync) != 0 {
					t.Fatalf("%d txns still registered in the commit path", len(unsync))
				}
				checkWALOrder(t, f.wal)
			}
		})
	}
}

// TestAddCleanupRacesFinish registers a cleanup while the transaction
// reaches a terminal state (by commit, by abort, or by an abort racing its
// prepare): the cleanup must run exactly once, never leak.
func TestAddCleanupRacesFinish(t *testing.T) {
	runs := raceRuns()
	for batch := 0; batch < runs; batch += raceBatch {
		f := newFixture(t)
		for i := batch; i < batch+raceBatch && i < runs; i++ {
			tx := f.mgr.Begin(0, 0)
			var ran atomic.Int32
			added := make(chan struct{})
			go func() {
				tx.AddCleanup(func() { ran.Add(1) })
				close(added)
			}()
			switch i % 3 {
			case 0:
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
			case 1:
				if err := tx.Abort(); err != nil {
					t.Fatal(err)
				}
			case 2:
				aborted := make(chan error, 1)
				go func() { aborted <- tx.Abort() }()
				if _, err := tx.Prepare(); err == nil {
					tx.Abort()
				}
				<-aborted
			}
			<-added
			<-tx.Done()
			if n := ran.Load(); n != 1 {
				t.Fatalf("run %d: cleanup ran %d times", i, n)
			}
		}
	}
}
