package mvcc

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
)

// lockStripes shards the key → lockState map. Power of two; keys hash with
// FNV-1a, so two concurrent writers on different keys almost never share a
// stripe mutex and the common uncontended Acquire/Release touches exactly
// one stripe lock and one held-shard lock — never a table-global one.
const lockStripes = 64

// heldShards shards the per-transaction held-key index by xid. Sequential
// xid allocation spreads neighbors round-robin.
const heldShards = 64

// LockTable implements row-level exclusive locks with reentrancy and
// wait-die ordering by snapshot. Writers acquire the lock for a key before
// creating a new tuple version and hold it until the transaction finishes,
// mirroring PostgreSQL's row-level write locking under snapshot isolation.
//
// Waits are ordered by Order (DESIGN §10): a requester younger than the
// owner waits; one older than the owner fails at once with
// base.ErrWWConflict, because under first-updater-wins it is doomed as soon
// as the younger owner commits. A released lock goes to its oldest waiter,
// so every wait edge points from younger to older and no cycle can form —
// on one node or across many, since every participant of a distributed
// transaction carries the same StartTS. Deadlocks need no graph, and the
// timeout only bounds a wait on a lost holder.
//
// Key stripes carry the lock states; held shards carry each transaction's
// held-key set for ReleaseAll. A key stripe may take a held shard, never the
// reverse.
type LockTable struct {
	stripes [lockStripes]lockStripe
	held    [heldShards]heldShard

	// collisions counts fast-path TryLock failures on key stripes — how
	// often two transactions actually contended for a stripe mutex.
	collisions atomic.Uint64
}

type lockStripe struct {
	mu    sync.Mutex
	locks map[base.Key]*lockState
	_     [40]byte // pad to a cache line so stripes don't false-share
}

type heldShard struct {
	mu   sync.Mutex
	keys map[base.XID]map[base.Key]struct{}
	_    [40]byte
}

// Order ranks a lock requester for wait-die: a smaller StartTS is older,
// then a smaller global Txn id, then a smaller local XID. The zero Order
// ranks nothing: a request with a zero Order on either side waits, and
// zero-Order waiters are granted first in, first out (the baseline's shard
// locks).
type Order struct {
	StartTS base.Timestamp
	Txn     base.TxnID
}

// lockReq is one requester: its xid and its rank.
type lockReq struct {
	xid base.XID
	ord Order
}

// olderThan reports whether r strictly precedes o in wait-die order. It is
// false when either side is unordered.
func (r lockReq) olderThan(o lockReq) bool {
	switch {
	case r.ord.StartTS == base.TsZero || o.ord.StartTS == base.TsZero:
		return false
	case r.ord.StartTS != o.ord.StartTS:
		return r.ord.StartTS < o.ord.StartTS
	case r.ord.Txn != o.ord.Txn:
		return r.ord.Txn < o.ord.Txn
	default:
		return r.xid < o.xid
	}
}

type lockWaiter struct {
	lockReq
	granted chan struct{}
	done    bool // set under the stripe mutex when granted or abandoned
}

type lockState struct {
	owner   lockReq
	depth   int
	waiters []*lockWaiter
}

// NewLockTable returns an empty lock table.
func NewLockTable() *LockTable {
	lt := &LockTable{}
	for i := range lt.stripes {
		lt.stripes[i].locks = make(map[base.Key]*lockState)
	}
	for i := range lt.held {
		lt.held[i].keys = make(map[base.XID]map[base.Key]struct{})
	}
	return lt
}

// stripeOf hashes a key onto its stripe (FNV-1a, as the replayer's
// dependency index does).
func (lt *LockTable) stripeOf(key base.Key) *lockStripe {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &lt.stripes[h&(lockStripes-1)]
}

func (lt *LockTable) heldShardOf(xid base.XID) *heldShard {
	return &lt.held[uint64(xid)&(heldShards-1)]
}

// lockStripe acquires the stripe mutex, counting the acquisition as a
// collision when another transaction held it.
func (lt *LockTable) lockStripe(s *lockStripe) {
	if !s.mu.TryLock() {
		lt.collisions.Add(1)
		s.mu.Lock()
	}
}

// StripeCollisions reports how many fast-path stripe acquisitions found the
// stripe mutex already held.
func (lt *LockTable) StripeCollisions() uint64 { return lt.collisions.Load() }

// noteHeld records ownership for ReleaseAll. Caller holds the key's stripe
// mutex (held shards are leaf locks under stripes).
func (lt *LockTable) noteHeld(xid base.XID, key base.Key) {
	hs := lt.heldShardOf(xid)
	hs.mu.Lock()
	m := hs.keys[xid]
	if m == nil {
		m = make(map[base.Key]struct{})
		hs.keys[xid] = m
	}
	m[key] = struct{}{}
	hs.mu.Unlock()
}

func (lt *LockTable) dropHeld(xid base.XID, key base.Key) {
	hs := lt.heldShardOf(xid)
	hs.mu.Lock()
	if m := hs.keys[xid]; m != nil {
		delete(m, key)
		if len(m) == 0 {
			delete(hs.keys, xid)
		}
	}
	hs.mu.Unlock()
}

// Acquire blocks until xid owns the lock for key, or until timeout (zero
// means wait forever). Reentrant acquisition succeeds immediately. A
// requester older than the owner by ord fails at once with
// base.ErrWWConflict.
func (lt *LockTable) Acquire(key base.Key, xid base.XID, ord Order, timeout time.Duration) error {
	req := lockReq{xid: xid, ord: ord}
	s := lt.stripeOf(key)
	lt.lockStripe(s)
	st := s.locks[key]
	if st == nil {
		st = &lockState{}
		s.locks[key] = st
	}
	if st.owner.xid == base.InvalidXID || st.owner.xid == xid {
		st.owner = req
		st.depth++
		lt.noteHeld(xid, key)
		s.mu.Unlock()
		return nil
	}
	if req.olderThan(st.owner) {
		owner := st.owner.xid
		s.mu.Unlock()
		return fmt.Errorf("lock on %q by %v: older than holder %v: %w", string(key), xid, owner, base.ErrWWConflict)
	}
	w := &lockWaiter{lockReq: req, granted: make(chan struct{})}
	st.waiters = append(st.waiters, w)
	s.mu.Unlock()

	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-w.granted:
		return nil
	case <-timer:
	}
	// Timed out: withdraw, unless the grant raced the timer.
	lt.lockStripe(s)
	defer s.mu.Unlock()
	if w.done {
		return nil
	}
	w.done = true
	st.waiters = slices.DeleteFunc(st.waiters, func(c *lockWaiter) bool { return c == w })
	return fmt.Errorf("lock wait on %q: %w", string(key), base.ErrTimeout)
}

// Release drops one reentrancy level of xid's lock on key, handing the lock
// to the oldest waiter when the depth reaches zero.
func (lt *LockTable) Release(key base.Key, xid base.XID) {
	s := lt.stripeOf(key)
	lt.lockStripe(s)
	lt.releaseLocked(s, key, xid, false)
	s.mu.Unlock()
}

// ReleaseAll drops every lock held by xid (transaction end).
func (lt *LockTable) ReleaseAll(xid base.XID) {
	hs := lt.heldShardOf(xid)
	hs.mu.Lock()
	m := hs.keys[xid]
	delete(hs.keys, xid)
	hs.mu.Unlock()
	for key := range m {
		s := lt.stripeOf(key)
		lt.lockStripe(s)
		lt.releaseLocked(s, key, xid, true)
		s.mu.Unlock()
	}
}

// releaseLocked is the release body; caller holds the key's stripe mutex.
// With all set the whole reentrancy depth drops and held-set bookkeeping is
// the caller's (ReleaseAll already detached the set).
func (lt *LockTable) releaseLocked(s *lockStripe, key base.Key, xid base.XID, all bool) {
	st := s.locks[key]
	if st == nil || st.owner.xid != xid {
		return
	}
	if all {
		st.depth = 0
	} else {
		st.depth--
	}
	if st.depth > 0 {
		return
	}
	if !all {
		lt.dropHeld(xid, key)
	}
	if len(st.waiters) == 0 {
		delete(s.locks, key)
		return
	}
	// Grant the oldest waiter, so the rest stay younger than the new owner.
	// The first one wins ties, which keeps unordered waiters FIFO.
	i := 0
	for j, w := range st.waiters {
		if w.olderThan(st.waiters[i].lockReq) {
			i = j
		}
	}
	w := st.waiters[i]
	st.waiters = slices.Delete(st.waiters, i, i+1)
	st.owner = w.lockReq
	st.depth = 1
	w.done = true
	lt.noteHeld(w.xid, key)
	close(w.granted)
}

// Owner reports the current lock owner for key (for tests and debugging).
func (lt *LockTable) Owner(key base.Key) base.XID {
	s := lt.stripeOf(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if st := s.locks[key]; st != nil {
		return st.owner.xid
	}
	return base.InvalidXID
}

// HeldBy reports how many keys xid currently has locked.
func (lt *LockTable) HeldBy(xid base.XID) int {
	hs := lt.heldShardOf(xid)
	hs.mu.Lock()
	defer hs.mu.Unlock()
	return len(hs.keys[xid])
}
