package mvcc

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/clog"
)

func TestLockAcquireRelease(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	if lt.Owner("k") != 1 {
		t.Fatalf("owner = %v", lt.Owner("k"))
	}
	lt.Release("k", 1)
	if lt.Owner("k") != base.InvalidXID {
		t.Fatal("lock not released")
	}
}

func TestLockReentrant(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	lt.Release("k", 1)
	if lt.Owner("k") != 1 {
		t.Fatal("reentrant lock released too early")
	}
	lt.Release("k", 1)
	if lt.Owner("k") != base.InvalidXID {
		t.Fatal("lock not fully released")
	}
}

func TestLockBlocksAndHandsOver(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	acquired := make(chan struct{})
	go func() {
		if err := lt.Acquire("k", 2, Order{}, 0); err != nil {
			t.Error(err)
		}
		close(acquired)
	}()
	select {
	case <-acquired:
		t.Fatal("waiter acquired a held lock")
	case <-time.After(10 * time.Millisecond):
	}
	lt.Release("k", 1)
	select {
	case <-acquired:
	case <-time.After(time.Second):
		t.Fatal("waiter never granted")
	}
	if lt.Owner("k") != 2 {
		t.Fatalf("owner = %v, want 2", lt.Owner("k"))
	}
}

func TestLockFIFO(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	order := make(chan base.XID, 2)
	var ready sync.WaitGroup
	start := func(xid base.XID) {
		ready.Done()
		if err := lt.Acquire("k", xid, Order{}, 0); err != nil {
			t.Error(err)
			return
		}
		order <- xid
		lt.Release("k", xid)
	}
	ready.Add(1)
	go start(2)
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // ensure 2 queues first
	ready.Add(1)
	go start(3)
	ready.Wait()
	time.Sleep(10 * time.Millisecond)
	lt.Release("k", 1)
	if first := <-order; first != 2 {
		t.Errorf("first grant to %v, want 2 (unordered waiters are FIFO)", first)
	}
	if second := <-order; second != 3 {
		t.Errorf("second grant to %v, want 3", second)
	}
}

func TestLockTimeout(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	err := lt.Acquire("k", 2, Order{}, 20*time.Millisecond)
	if !errors.Is(err, base.ErrTimeout) {
		t.Fatalf("err = %v, want timeout", err)
	}
	// The timed-out waiter must not receive the lock later.
	lt.Release("k", 1)
	if owner := lt.Owner("k"); owner != base.InvalidXID {
		t.Fatalf("owner = %v after release, want none", owner)
	}
}

func TestReleaseAll(t *testing.T) {
	lt := NewLockTable()
	for _, k := range []base.Key{"a", "b", "c"} {
		if err := lt.Acquire(k, 7, Order{}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if lt.HeldBy(7) != 3 {
		t.Fatalf("HeldBy = %d", lt.HeldBy(7))
	}
	lt.ReleaseAll(7)
	if lt.HeldBy(7) != 0 {
		t.Fatal("locks not released")
	}
	for _, k := range []base.Key{"a", "b", "c"} {
		if lt.Owner(k) != base.InvalidXID {
			t.Fatalf("%q still owned", k)
		}
	}
}

func TestReleaseAllWakesWaiters(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("a", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("b", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, k := range []base.Key{"a", "b"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := lt.Acquire(k, 2, Order{}, time.Second); err != nil {
				t.Error(err)
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	lt.ReleaseAll(1)
	wg.Wait()
	if lt.HeldBy(2) != 2 {
		t.Fatalf("HeldBy(2) = %d, want 2", lt.HeldBy(2))
	}
}

func TestReleaseByNonOwnerIgnored(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, Order{}, 0); err != nil {
		t.Fatal(err)
	}
	lt.Release("k", 2) // not the owner
	if lt.Owner("k") != 1 {
		t.Fatal("non-owner release changed ownership")
	}
	lt.Release("zzz", 1) // unknown key
}

func TestLockContentionStress(t *testing.T) {
	lt := NewLockTable()
	const workers = 16
	counter := 0
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(xid base.XID) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				if err := lt.Acquire("hot", xid, Order{}, time.Minute); err != nil {
					t.Error(err)
					return
				}
				counter++ // exclusive lock makes this safe
				lt.ReleaseAll(xid)
			}
		}(base.XID(i + 1))
	}
	wg.Wait()
	if counter != workers*100 {
		t.Fatalf("counter = %d, want %d (mutual exclusion broken)", counter, workers*100)
	}
}

// TestWaitDieTransfersNeverTimeOut runs transfers that lock two of four
// keys in either order, retrying with a fresh start timestamp when wait-die
// fails them. Under the rule no wait may form a cycle, so none may time out,
// and the exclusive sections must never overlap.
func TestWaitDieTransfersNeverTimeOut(t *testing.T) {
	lt := NewLockTable()
	keys := keysOnDistinctStripes(t, lt, 4)
	var clock atomic.Uint64
	var holders [4]atomic.Int32
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(xid base.XID) {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				from, to := (int(xid)+j)%4, (int(xid)*3+j*7+1)%4
				if from == to {
					continue
				}
				for {
					ord := at(base.Timestamp(clock.Add(1)))
					err := lt.Acquire(keys[from], xid, ord, 2*time.Second)
					if err == nil {
						err = lt.Acquire(keys[to], xid, ord, 2*time.Second)
					}
					if err == nil {
						for _, k := range []int{from, to} {
							if holders[k].Add(1) != 1 {
								t.Errorf("key %d held twice", k)
							}
						}
						holders[from].Add(-1)
						holders[to].Add(-1)
					}
					lt.ReleaseAll(xid)
					if err == nil {
						break
					}
					if errors.Is(err, base.ErrTimeout) || !errors.Is(err, base.ErrWWConflict) {
						t.Errorf("xid %v: %v", xid, err)
						return
					}
				}
			}
		}(base.XID(w + 1))
	}
	wg.Wait()
}

// at ranks a requester by start timestamp alone.
func at(ts base.Timestamp) Order { return Order{StartTS: ts} }

// waitsFor asserts that an acquire stays blocked for a while, and returns
// its eventual outcome.
func waitsFor(t *testing.T, acquire func() error) <-chan error {
	t.Helper()
	res := make(chan error, 1)
	go func() { res <- acquire() }()
	select {
	case err := <-res:
		t.Fatalf("acquire returned %v, want it to wait", err)
	case <-time.After(10 * time.Millisecond):
	}
	return res
}

// failsAtOnce asserts that an acquire fails with a serialization failure
// well before any timeout.
func failsAtOnce(t *testing.T, acquire func() error) {
	t.Helper()
	start := time.Now()
	err := acquire()
	if !errors.Is(err, base.ErrWWConflict) || errors.Is(err, base.ErrTimeout) {
		t.Fatalf("err = %v, want an immediate ww-conflict", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("older requester took %v to fail", d)
	}
}

func TestLockOrderRanks(t *testing.T) {
	for _, c := range []struct {
		a, b lockReq
		want bool
	}{
		{lockReq{9, at(1)}, lockReq{1, at(2)}, true}, // start timestamp first
		{lockReq{1, at(2)}, lockReq{9, at(1)}, false},
		{lockReq{9, Order{5, 1}}, lockReq{1, Order{5, 2}}, true}, // then global txn id
		{lockReq{1, Order{5, 2}}, lockReq{9, Order{5, 1}}, false},
		{lockReq{1, Order{5, 3}}, lockReq{2, Order{5, 3}}, true}, // then local xid
		{lockReq{2, Order{5, 3}}, lockReq{1, Order{5, 3}}, false},
		{lockReq{1, Order{}}, lockReq{2, at(5)}, false}, // unordered on either side
		{lockReq{1, at(5)}, lockReq{2, Order{}}, false},
	} {
		if got := c.a.olderThan(c.b); got != c.want {
			t.Errorf("%+v older than %+v = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestLockHandsOverToOldestWaiter pins oldest-first hand-over. A FIFO
// hand-over would grant xid 2 (queued first), leaving the older xid 3
// waiting on a younger owner — the one edge that lets a cycle form.
func TestLockHandsOverToOldestWaiter(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("k", 1, at(1), 0); err != nil {
		t.Fatal(err)
	}
	second := waitsFor(t, func() error { return lt.Acquire("k", 2, at(30), time.Second) })
	third := waitsFor(t, func() error { return lt.Acquire("k", 3, at(20), time.Second) })
	lt.ReleaseAll(1)
	if err := <-third; err != nil {
		t.Fatal(err)
	}
	if owner := lt.Owner("k"); owner != 3 {
		t.Fatalf("owner after hand-over = %v, want the oldest waiter 3", owner)
	}
	// The younger waiter keeps waiting on its new, older owner.
	select {
	case err := <-second:
		t.Fatalf("younger waiter returned %v while the lock is owned", err)
	default:
	}
	lt.ReleaseAll(3)
	if err := <-second; err != nil {
		t.Fatal(err)
	}
}

// TestDeadlockDetectedABBA: two transactions locking a and b in opposite
// orders cannot deadlock. The older requester fails at once; the younger
// waits and is granted once the older one rolls back.
func TestDeadlockDetectedABBA(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("a", 1, at(1), 0); err != nil {
		t.Fatal(err)
	}
	if err := lt.Acquire("b", 2, at(2), 0); err != nil {
		t.Fatal(err)
	}
	younger := waitsFor(t, func() error { return lt.Acquire("a", 2, at(2), time.Minute) })
	failsAtOnce(t, func() error { return lt.Acquire("b", 1, at(1), time.Minute) })
	lt.ReleaseAll(1)
	if err := <-younger; err != nil {
		t.Fatalf("younger requester = %v", err)
	}
}

// TestDeadlockDetectedThreeWayCycle: of the three requests that would close
// a three-transaction cycle, the two from older requesters fail at once, so
// no cycle forms; the youngest waits and is granted.
func TestDeadlockDetectedThreeWayCycle(t *testing.T) {
	lt := NewLockTable()
	for i, k := range []base.Key{"a", "b", "c"} {
		if err := lt.Acquire(k, base.XID(i+1), at(base.Timestamp(i+1)), 0); err != nil {
			t.Fatal(err)
		}
	}
	failsAtOnce(t, func() error { return lt.Acquire("b", 1, at(1), time.Minute) }) // 1 -> 2
	failsAtOnce(t, func() error { return lt.Acquire("c", 2, at(2), time.Minute) }) // 2 -> 3
	youngest := waitsFor(t, func() error { return lt.Acquire("a", 3, at(3), time.Minute) })
	lt.ReleaseAll(1)
	if err := <-youngest; err != nil {
		t.Fatal(err)
	}
}

// TestNoFalseDeadlockOnChains: a chain of younger requesters behind an older
// owner waits without aborting and drains in age order.
func TestNoFalseDeadlockOnChains(t *testing.T) {
	lt := NewLockTable()
	if err := lt.Acquire("a", 1, at(1), 0); err != nil {
		t.Fatal(err)
	}
	second := waitsFor(t, func() error { return lt.Acquire("a", 2, at(2), time.Minute) })
	third := waitsFor(t, func() error { return lt.Acquire("a", 3, at(3), time.Minute) })
	lt.ReleaseAll(1)
	if err := <-second; err != nil {
		t.Fatalf("chain waiter 2 got %v", err)
	}
	lt.ReleaseAll(2)
	if err := <-third; err != nil {
		t.Fatalf("chain waiter 3 got %v", err)
	}
}

func TestDeadlockVictimTxnLevel(t *testing.T) {
	// End-to-end through the store: two transactions with one start
	// timestamp update (k1,k2) in opposite orders. The tie breaks by xid:
	// xid 11 is older, so its request for k2 fails at once with a
	// ww-conflict, and xid 12 waits for k1 and commits after 11 aborts.
	cl := clog.New()
	cl.Begin(FrozenXID)
	if err := cl.SetCommitted(FrozenXID, base.TsBootstrap); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	st := NewStore(cl, cfg)
	seed := func(xid base.XID, key string) {
		cl.Begin(xid)
		if err := st.Write(WriteReq{Kind: WriteInsert, Key: base.Key(key), Value: base.Value("v"), XID: xid, StartTS: 5}); err != nil {
			t.Fatal(err)
		}
		cl.SetPrepared(xid)
		cl.SetCommitted(xid, 6)
		st.ReleaseLocks(xid)
	}
	seed(100, "k1")
	seed(101, "k2")

	cl.Begin(11)
	cl.Begin(12)
	if err := st.Write(WriteReq{Kind: WriteUpdate, Key: "k1", Value: base.Value("a"), XID: 11, StartTS: 10}); err != nil {
		t.Fatal(err)
	}
	if err := st.Write(WriteReq{Kind: WriteUpdate, Key: "k2", Value: base.Value("b"), XID: 12, StartTS: 10}); err != nil {
		t.Fatal(err)
	}
	res := waitsFor(t, func() error {
		return st.Write(WriteReq{Kind: WriteUpdate, Key: "k1", Value: base.Value("b2"), XID: 12, StartTS: 10})
	})
	failsAtOnce(t, func() error {
		return st.Write(WriteReq{Kind: WriteUpdate, Key: "k2", Value: base.Value("a2"), XID: 11, StartTS: 10})
	})
	// The older transaction aborts; the younger one's blocked write proceeds.
	cl.SetAborted(11)
	st.ReleaseLocks(11)
	if err := <-res; err != nil {
		t.Fatalf("survivor write = %v", err)
	}
	cl.SetPrepared(12)
	cl.SetCommitted(12, 20)
	st.ReleaseLocks(12)
}
