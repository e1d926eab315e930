// Package clog implements the commit log of a node: the per-transaction
// status table that MVCC visibility checks consult (§2.2 of the Remus paper).
//
// PostgreSQL's CLOG records committed/aborted per xid; PolarDB-PG extends it
// to also record the commit timestamp, and introduces a "prepared" state (a
// reserved special timestamp) used by the 2PC prepare-wait mechanism: a
// reader that finds a version whose creator is prepared must wait for that
// transaction to finish before deciding visibility.
//
// The table is striped by xid so registration and truncation on different
// stripes never contend, and each record publishes its (status, commitTS)
// pair as a single packed atomic word: status transitions are CAS loops on
// that word, never a table-wide critical section, and a visibility check
// holding a *Ref resolves with one atomic load — the foreground read path
// takes no lock at all (see DESIGN §10 for the memory-ordering argument).
package clog

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
)

// Entry is a snapshot of one transaction's CLOG state.
type Entry struct {
	Status   base.TxnStatus
	CommitTS base.Timestamp
}

// The packed word holds the status in the top two bits and the commit
// timestamp in the low 62. Real timestamps come from the GTS oracle counting
// up from 1 — 2^62 ticks outlast any deployment — and base.TsMax is a
// sentinel that no transaction ever commits at, so the truncation is checked,
// not assumed: SetCommitted rejects a timestamp that does not fit.
const (
	packedStatusShift = 62
	packedTSMask      = uint64(1)<<packedStatusShift - 1
)

func packWord(st base.TxnStatus, ts base.Timestamp) uint64 {
	return uint64(st)<<packedStatusShift | uint64(ts)
}

func unpackWord(w uint64) Entry {
	return Entry{
		Status:   base.TxnStatus(w >> packedStatusShift),
		CommitTS: base.Timestamp(w & packedTSMask),
	}
}

// Decided reports whether the entry is a decided transaction: prepared, so
// readers still prepare-wait, but carrying its commit timestamp, so the
// outcome is final — SetAborted refuses it and SetCommitted accepts only that
// timestamp. A commit holds its word in this state while its commit record
// is synced, so no reader sees a commit that is not yet durable.
func (e Entry) Decided() bool { return e.Status == base.StatusPrepared && e.CommitTS != 0 }

// Ref is a stable handle on one transaction's CLOG record. Holders resolve
// the transaction's (status, commitTS) with a single atomic load — no stripe
// lock, no map probe — so MVCC version chains cache the creator's Ref at
// version-creation time and visibility checks stay lock-free for the
// version's whole life. A Ref stays valid after Forget drops the record from
// the table: it keeps reporting the terminal state, which is strictly more
// information than the table's unknown-means-aborted fallback. Its Set
// methods are the record's transitions, each a CAS loop on the packed word.
type Ref struct {
	xid base.XID
	// packed is the (status, commitTS) word. base.StatusInProgress is zero,
	// so the zero Ref is a freshly begun transaction.
	packed atomic.Uint64
	// done is the prepare-wait channel, created lazily on first wait (most
	// transactions are never waited on; skipping the allocation keeps Begin
	// cheap). closed guards the close so the terminal transition and a
	// racing first waiter cannot double-close.
	done   atomic.Pointer[chan struct{}]
	closed atomic.Bool
}

// Entry returns the transaction's current state with one atomic load.
func (r *Ref) Entry() Entry { return unpackWord(r.packed.Load()) }

// doneCh returns the wait channel, installing it if needed. The installer
// must re-check the packed word afterwards: a terminal transition that ran
// before the install saw done==nil and did not close it.
func (r *Ref) doneCh() chan struct{} {
	if ch := r.done.Load(); ch != nil {
		return *ch
	}
	ch := make(chan struct{})
	if !r.done.CompareAndSwap(nil, &ch) {
		return *r.done.Load()
	}
	if e := r.Entry(); e.Status == base.StatusCommitted || e.Status == base.StatusAborted {
		r.wakeWaiters()
	}
	return ch
}

// wakeWaiters closes the wait channel, exactly once, if one was installed.
// Transition order is packed-word first, then wake: a waiter that misses the
// wake (channel installed after the transition's nil load) sees the terminal
// word on its own post-install check and wakes itself.
func (r *Ref) wakeWaiters() {
	if ch := r.done.Load(); ch != nil && r.closed.CompareAndSwap(false, true) {
		close(*ch)
	}
}

// WaitDone blocks until the transaction reaches a terminal state (committed
// or aborted), implementing the prepare-wait of §2.2, and returns the final
// entry. A zero timeout waits forever.
func (r *Ref) WaitDone(timeout time.Duration) (Entry, error) {
	if e := r.Entry(); e.Status == base.StatusCommitted || e.Status == base.StatusAborted {
		return e, nil
	}
	ch := r.doneCh()
	var timer <-chan time.Time
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		timer = t.C
	}
	select {
	case <-ch:
		return r.Entry(), nil
	case <-timer:
		return r.Entry(), fmt.Errorf("clog: prepare-wait: %w", base.ErrTimeout)
	}
}

// SetPrepared moves in-progress → prepared.
func (r *Ref) SetPrepared() error {
	for {
		w := r.packed.Load()
		if st := unpackWord(w).Status; st != base.StatusInProgress {
			return fmt.Errorf("clog: prepare of %v in state %v", r.xid, st)
		}
		if r.packed.CompareAndSwap(w, packWord(base.StatusPrepared, 0)) {
			return nil
		}
	}
}

// SetDecided moves undecided-prepared → decided at ts (see Entry.Decided).
func (r *Ref) SetDecided(ts base.Timestamp) error {
	if ts == 0 || uint64(ts)&^packedTSMask != 0 {
		return fmt.Errorf("clog: decide of %v at unrepresentable %v", r.xid, ts)
	}
	if !r.packed.CompareAndSwap(packWord(base.StatusPrepared, 0), packWord(base.StatusPrepared, ts)) {
		return fmt.Errorf("clog: decide of %v in state %+v", r.xid, r.Entry())
	}
	return nil
}

// SetCommitted publishes the commit timestamp and wakes prepare-waiters. A
// decided record commits only at its decided timestamp.
func (r *Ref) SetCommitted(ts base.Timestamp) error {
	if uint64(ts)&^packedTSMask != 0 {
		return fmt.Errorf("clog: commit timestamp %v of %v overflows the packed word", ts, r.xid)
	}
	for {
		w := r.packed.Load()
		e := unpackWord(w)
		switch {
		case e.Status == base.StatusCommitted, e.Decided():
			if e.CommitTS != ts {
				return fmt.Errorf("clog: %v re-committed with %v (was %v)", r.xid, ts, e.CommitTS)
			}
			if e.Status == base.StatusCommitted {
				return nil
			}
		case e.Status == base.StatusAborted:
			return fmt.Errorf("clog: commit of aborted %v", r.xid)
		}
		if r.packed.CompareAndSwap(w, packWord(base.StatusCommitted, ts)) {
			r.wakeWaiters()
			return nil
		}
	}
}

// SetAborted marks the transaction aborted and wakes prepare-waiters.
func (r *Ref) SetAborted() error {
	for {
		w := r.packed.Load()
		switch e := unpackWord(w); {
		case e.Status == base.StatusAborted:
			return nil
		case e.Status == base.StatusCommitted, e.Decided():
			return fmt.Errorf("clog: abort of committed %v", r.xid)
		}
		if r.packed.CompareAndSwap(w, packWord(base.StatusAborted, 0)) {
			r.wakeWaiters()
			return nil
		}
	}
}

// stripeCount shards the xid → record map. Power of two; xids are allocated
// sequentially, so the mask spreads consecutive transactions round-robin and
// two concurrent Begins almost never share a stripe lock.
const stripeCount = 64

type clogStripe struct {
	mu      sync.RWMutex
	records map[base.XID]*Ref
	_       [40]byte // pad to a cache line so stripes don't false-share
}

// CLOG is one node's commit log. The zero value is not usable; use New.
type CLOG struct {
	stripes [stripeCount]clogStripe
}

// New returns an empty commit log.
func New() *CLOG {
	c := &CLOG{}
	for i := range c.stripes {
		c.stripes[i].records = make(map[base.XID]*Ref)
	}
	return c
}

func (c *CLOG) stripe(xid base.XID) *clogStripe {
	return &c.stripes[uint64(xid)&(stripeCount-1)]
}

// Begin registers a transaction as in-progress and returns its Ref. It must
// be called before the transaction creates any tuple version carrying its
// xid; version creators cache the Ref so visibility checks skip the table.
func (c *CLOG) Begin(xid base.XID) *Ref {
	s := c.stripe(xid)
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.records[xid]; ok {
		panic(fmt.Sprintf("clog: duplicate Begin for %v", xid))
	}
	r := &Ref{xid: xid}
	s.records[xid] = r
	return r
}

// Handle returns the transaction's Ref, or nil when the xid is unknown
// (never begun, or truncated by Forget).
func (c *CLOG) Handle(xid base.XID) *Ref {
	s := c.stripe(xid)
	s.mu.RLock()
	r := s.records[xid]
	s.mu.RUnlock()
	return r
}

// SetPrepared marks the transaction prepared (§2.2: status tagged as
// prepared in the CLOG during the 2PC prepare phase; also done for
// single-node transactions before assigning their commit timestamp).
func (c *CLOG) SetPrepared(xid base.XID) error {
	r := c.Handle(xid)
	if r == nil {
		return fmt.Errorf("clog: prepare of unknown %v", xid)
	}
	return r.SetPrepared()
}

// SetCommitted replaces the transaction's status with its commit timestamp
// and wakes all prepare-waiters.
func (c *CLOG) SetCommitted(xid base.XID, ts base.Timestamp) error {
	r := c.Handle(xid)
	if r == nil {
		return fmt.Errorf("clog: commit of unknown %v", xid)
	}
	return r.SetCommitted(ts)
}

// SetAborted marks the transaction aborted and wakes all prepare-waiters.
func (c *CLOG) SetAborted(xid base.XID) error {
	r := c.Handle(xid)
	if r == nil {
		return fmt.Errorf("clog: abort of unknown %v", xid)
	}
	return r.SetAborted()
}

// Lookup returns the transaction's current status and commit timestamp.
// Unknown xids report as aborted: after crash recovery, in-flight
// transactions that never reached the log are treated as rolled back, which
// matches PostgreSQL's treatment of missing CLOG hint state.
func (c *CLOG) Lookup(xid base.XID) Entry {
	r := c.Handle(xid)
	if r == nil {
		return Entry{Status: base.StatusAborted}
	}
	return r.Entry()
}

// WaitDone blocks until the transaction reaches a terminal state (committed
// or aborted), implementing the prepare-wait of §2.2, and returns the final
// entry. A zero timeout waits forever. Unknown xids report as aborted.
func (c *CLOG) WaitDone(xid base.XID, timeout time.Duration) (Entry, error) {
	r := c.Handle(xid)
	if r == nil {
		return Entry{Status: base.StatusAborted}, nil
	}
	e, err := r.WaitDone(timeout)
	if err != nil {
		return e, fmt.Errorf("clog: wait for %v: %w", xid, base.ErrTimeout)
	}
	return e, nil
}

// InProgress returns the xids currently in the in-progress or prepared state.
// Crash recovery uses it to enumerate residual transactions.
func (c *CLOG) InProgress() []base.XID {
	var out []base.XID
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		for xid, r := range s.records {
			if st := r.Entry().Status; st == base.StatusInProgress || st == base.StatusPrepared {
				out = append(out, xid)
			}
		}
		s.mu.RUnlock()
	}
	return out
}

// Forget drops a terminal transaction's record (CLOG truncation). Forgetting
// a live transaction is a programming error. Outstanding Refs keep reporting
// the terminal state.
func (c *CLOG) Forget(xid base.XID) error {
	s := c.stripe(xid)
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.records[xid]
	if !ok {
		return nil
	}
	if st := r.Entry().Status; st == base.StatusInProgress || st == base.StatusPrepared {
		return fmt.Errorf("clog: forget of live %v (%v)", xid, st)
	}
	delete(s.records, xid)
	return nil
}

// Len reports the number of tracked transactions (for tests and monitoring).
func (c *CLOG) Len() int {
	n := 0
	for i := range c.stripes {
		s := &c.stripes[i]
		s.mu.RLock()
		n += len(s.records)
		s.mu.RUnlock()
	}
	return n
}
