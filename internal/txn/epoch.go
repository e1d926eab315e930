// Epoch-based group commit: transactions that reach their commit point
// within one epoch are published together — one WAL fsync-point for the
// whole epoch instead of one per transaction — and their commit
// acknowledgements are released only when the epoch seals.
// This follows the epoch-commit design of "Epoch-based Optimistic
// Concurrency Control in Geo-replicated Databases" (PAPERS.md), adapted to
// this repo's SI machinery.
//
// Snapshot-isolation safety: a member's commit timestamp is assigned before
// it parks and recorded in its CLOG word, which moves to decided — still
// prepared to readers — and stays there until the seal.
// Any reader whose snapshot could observe the commit therefore hits the
// standard prepare-wait (§2.2) and blocks until the epoch seals — a snapshot
// never observes a commit from an unsealed epoch, and after the seal it
// observes either all of the epoch's commits at or below its snapshot or
// none of them.
//
// Equivalence at epoch size 1: the submitting goroutine seals its own
// single-member epoch inline, producing exactly the legacy commit sequence
// (CLOG publish, WAL commit record, sync point, lock release) with no
// goroutine handoff — pinned byte-for-byte by TestEpochOneByteIdenticalToLegacy.
package txn

import (
	"sync"
	"time"

	"remus/internal/fault"
	"remus/internal/obs"
	"remus/internal/wal"
)

// DefaultEpochDelay bounds how long a non-full epoch stays open: the maximum
// extra commit latency group commit may add to a lone transaction.
const DefaultEpochDelay = 500 * time.Microsecond

// EpochConfig shapes group commit on one node's transaction manager.
type EpochConfig struct {
	// Txns seals an epoch when it holds this many members. Values <= 0
	// disable epochs entirely (the legacy per-transaction commit path); 1
	// runs the epoch machinery but degenerates to it byte-for-byte.
	Txns int
	// Delay seals a non-full epoch this long after its first member parked
	// (<= 0 uses DefaultEpochDelay). It must stay well below the MVCC
	// prepare-wait timeout: readers of an unsealed commit wait it out.
	Delay time.Duration
	// Faults, if non-nil, evaluates fault.SiteEpochSeal at every seal
	// boundary (chaos sweeps crash the node there to tear the epoch).
	Faults *fault.Registry
}

type epoch struct {
	opened  time.Time
	timer   *time.Timer
	members []*Txn        // decided, in park order
	sealed  chan struct{} // closed once the epoch is published
}

type epochManager struct {
	m   *Manager
	cfg EpochConfig

	mu  sync.Mutex
	cur *epoch
}

// SetEpoch installs (or, with Txns <= 0, removes) epoch-based group commit.
// Safe to call on a live manager: in-flight commits finish under the
// configuration they entered with.
func (m *Manager) SetEpoch(cfg EpochConfig) {
	if cfg.Txns <= 0 {
		m.epochs.Store(nil)
		return
	}
	if cfg.Delay <= 0 {
		cfg.Delay = DefaultEpochDelay
	}
	m.epochs.Store(&epochManager{m: m, cfg: cfg})
}

// Epoch reports the group-commit configuration in force (zero value when
// disabled).
func (m *Manager) Epoch() EpochConfig {
	if em := m.epochs.Load(); em != nil {
		return em.cfg
	}
	return EpochConfig{}
}

// FlushEpochs force-seals the currently open epoch, if any. Migration's sync
// barrier calls it after capturing TS_unsync so parked barrier-era commits
// publish immediately instead of waiting out the epoch timer.
func (m *Manager) FlushEpochs() {
	if em := m.epochs.Load(); em != nil {
		em.flush()
	}
}

// commit parks the transaction in the current epoch and blocks until the
// epoch seals; publication (CLOG + WAL) happens in the sealer, lock release
// and bookkeeping in the member's own CommitAt afterwards. The caller has
// already moved the transaction's CLOG word to decided, which abort's
// CAS refuses (AbortWith on it fails like on any committed transaction) —
// the commit decision is final the moment it parks.
func (em *epochManager) commit(t *Txn) {
	em.mu.Lock()
	e := em.cur
	if e == nil {
		e = &epoch{opened: time.Now(), sealed: make(chan struct{})}
		em.cur = e
		if em.cfg.Txns > 1 {
			e.timer = time.AfterFunc(em.cfg.Delay, func() { em.sealIfCurrent(e) })
		}
	}
	e.members = append(e.members, t)
	full := len(e.members) >= em.cfg.Txns
	if full {
		em.cur = nil // detached: this goroutine owns the seal
	}
	em.mu.Unlock()

	if full {
		em.seal(e)
	} else {
		<-e.sealed
	}
}

// sealIfCurrent is the timer path: detach the epoch if it is still open
// (a count-seal may have claimed it first) and publish it.
func (em *epochManager) sealIfCurrent(e *epoch) {
	em.mu.Lock()
	owned := em.cur == e
	if owned {
		em.cur = nil
	}
	em.mu.Unlock()
	if owned {
		em.seal(e)
	}
}

// flush force-seals the open epoch.
func (em *epochManager) flush() {
	em.mu.Lock()
	e := em.cur
	em.cur = nil
	em.mu.Unlock()
	if e != nil {
		em.seal(e)
	}
}

// seal publishes a detached epoch: each member's CLOG word moves decided →
// committed at its decided timestamp, followed by its WAL commit record, in
// epoch order; then one fsync-point and the wakeup. An unpublished member is
// still decided, so a reader that needs its outcome prepare-waits rather
// than misreading it. The fault site sits after the epoch stopped admitting
// members and before anything is published — the "torn epoch" boundary. A
// site error models a failed publication attempt and is retried: every
// member's commit decision is already final (word decided, coordinator may
// have released other participants), so rolling the epoch back here would
// tear distributed transactions; publication must simply happen. Chaos
// actions are Once/probabilistic, so retries terminate, and a crash Do still
// fires on the first evaluation.
func (em *epochManager) seal(e *epoch) {
	if e.timer != nil {
		e.timer.Stop() // a no-op on the timer's own path
	}
	for em.cfg.Faults.Eval(fault.SiteEpochSeal) != nil {
	}
	for _, t := range e.members {
		// Only the seal moves a decided word, so this cannot fail.
		ts := t.CommitTS()
		if err := t.ref.SetCommitted(ts); err != nil {
			panic(err)
		}
		em.m.wal.Append(wal.Record{
			Type: wal.RecCommit, XID: t.XID, Txn: t.GlobalID,
			StartTS: t.StartTS, CommitTS: ts,
		})
	}
	em.m.wal.Sync()
	if r := em.m.rec.Load(); r != nil {
		r.Add(obs.CtrEpochsSealed, 1)
		r.Observe(obs.HistEpochTxns, uint64(len(e.members)))
		r.Observe(obs.HistEpochSealDelay, uint64(time.Since(e.opened)))
	}
	close(e.sealed)
}
