// Package txn implements the per-node transaction machinery: snapshot
// isolation transactions over MVCC stores, WAL logging of every change, the
// 2PC participant protocol with prepare-wait timestamp ordering (§2.2), and
// the commit gate that Remus' sync barrier and MOCC validation plug into
// (§3.4, §3.5.2).
package txn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/clog"
	"remus/internal/fault"
	"remus/internal/mvcc"
	"remus/internal/obs"
	"remus/internal/wal"
)

// State is a transaction's lifecycle position.
type State uint8

const (
	// StateActive means the transaction is executing statements.
	StateActive State = iota
	// StateCommitting means the transaction entered its commit path.
	StateCommitting
	// StatePrepared means the 2PC prepare phase completed.
	StatePrepared
	// StateCommitted is terminal. It also covers a decided transaction
	// whose commit record is being synced: its outcome is final, only its
	// publication waits.
	StateCommitted
	// StateAborted is terminal.
	StateAborted
)

func (s State) String() string {
	switch s {
	case StateActive:
		return "active"
	case StateCommitting:
		return "committing"
	case StatePrepared:
		return "prepared"
	case StateCommitted:
		return "committed"
	case StateAborted:
		return "aborted"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// CommitGate intercepts commits on a migration source node. Remus installs a
// gate when the sync barrier is set (§3.4): transactions that wrote
// migrating shards become "synchronized source transactions" — their prepare
// record doubles as the MOCC validation record, and WaitValidation blocks
// until the destination has replayed and prepared the shadow transaction
// (returning an error on a WW-conflict, which aborts the source transaction).
type CommitGate interface {
	// NeedsValidation reports whether the committing transaction must be
	// validated (it touched a migrating shard while in sync mode).
	NeedsValidation(t *Txn) bool
	// WaitValidation blocks until the destination acks the transaction's
	// validation; a non-nil error aborts the transaction.
	WaitValidation(t *Txn) error
}

// WriteRef records one mutation for lock release and migration bookkeeping.
type WriteRef struct {
	Store *mvcc.Store
	Table base.TableID
	Shard base.ShardID
	Key   base.Key
	Kind  mvcc.WriteKind
}

// Txn is one node-local transaction (a standalone transaction, or one
// participant of a distributed transaction).
type Txn struct {
	m *Manager

	XID      base.XID
	GlobalID base.TxnID
	StartTS  base.Timestamp

	// ref is the transaction's CLOG word and its only stored outcome: every
	// transition is a CAS on it, taken under mu together with the WAL record
	// it logs. Every version this txn creates caches it so visibility checks
	// resolve the outcome with one atomic load.
	ref *clog.Ref

	wallStart time.Time // set only while a recorder is installed

	mu         sync.Mutex
	committing bool // entered the commit path; refines an in-progress word
	writes     []WriteRef
	shards     map[base.ShardID]struct{}
	firstLSN   wal.LSN       // LSN of the txn's first WAL record (0 if none)
	cleanups   []func()      // run once at terminal state (LIFO)
	abortCause error         // why the txn was aborted, if a cause was given
	done       chan struct{} // closed at terminal state
}

// FirstLSN returns the LSN of the transaction's first WAL record, or zero if
// it has not logged anything. Migration uses the minimum FirstLSN over
// active transactions to pick a propagation start position that covers every
// change that may commit after the migration snapshot (§3.3). A cluster
// coordinator commits a participant that reports zero with CommitReadOnly:
// it wrote nothing, so no vote or timestamp of its own can change anything.
func (t *Txn) FirstLSN() wal.LSN {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.firstLSN
}

// AddCleanup registers fn to run when the transaction finishes (commit or
// abort). Migration interceptors use it to release shard-level locks. If the
// transaction already finished (a concurrent abort raced this registration),
// fn runs immediately — resources acquired after the cleanup pass would
// otherwise leak.
func (t *Txn) AddCleanup(fn func()) {
	t.mu.Lock()
	if st := t.stateLocked(); st == StateCommitted || st == StateAborted {
		t.mu.Unlock()
		fn()
		return
	}
	t.cleanups = append(t.cleanups, fn)
	t.mu.Unlock()
}

// Manager owns the transactions of one node.
type Manager struct {
	node   base.NodeID
	clog   *clog.CLOG
	wal    *wal.Log
	oracle clock.Oracle
	cfg    mvcc.Config

	xidSeq atomic.Uint64
	seqSeq atomic.Uint64

	rec obs.Holder

	// commitMu serializes commit-path entry against gate installation so
	// the sync barrier can capture an exact TS_unsync set (§3.4).
	commitMu   sync.Mutex
	gate       CommitGate
	committing map[base.XID]*Txn

	// active is striped by xid: Begin/finish on different transactions touch
	// different stripe locks, so registration never serializes the foreground
	// path behind a node-global mutex. Horizon scans visit every stripe; see
	// OldestActiveStartTS for why the per-stripe critical sections keep the
	// vacuum-horizon guarantee intact.
	active [activeStripes]activeStripe

	// faults evaluates fault.SiteCommitPublish on every commit (nil: none).
	faults *fault.Registry
}

// activeStripes shards the active set. Power of two; xids are sequential, so
// consecutive Begins land on different stripes.
const activeStripes = 64

type activeStripe struct {
	mu   sync.Mutex
	txns map[base.XID]*Txn
	_    [40]byte // pad to a cache line so stripes don't false-share
}

func (m *Manager) activeStripe(xid base.XID) *activeStripe {
	return &m.active[uint64(xid)&(activeStripes-1)]
}

// NewManager wires a transaction manager over the node's CLOG, WAL and
// timestamp oracle. It registers mvcc.FrozenXID as committed at bootstrap.
func NewManager(node base.NodeID, cl *clog.CLOG, w *wal.Log, oracle clock.Oracle, cfg mvcc.Config) *Manager {
	m := &Manager{
		node:       node,
		clog:       cl,
		wal:        w,
		oracle:     oracle,
		cfg:        cfg,
		committing: make(map[base.XID]*Txn),
	}
	for i := range m.active {
		m.active[i].txns = make(map[base.XID]*Txn)
	}
	m.xidSeq.Store(uint64(mvcc.FrozenXID))
	cl.Begin(mvcc.FrozenXID)
	if err := cl.SetCommitted(mvcc.FrozenXID, base.TsBootstrap); err != nil {
		panic(err) // fresh CLOG; cannot fail
	}
	return m
}

// Node returns the owning node's id.
func (m *Manager) Node() base.NodeID { return m.node }

// SetRecorder installs (or, with nil, removes) the observability recorder.
// Safe to call on a live manager; in-flight transactions pick it up on their
// next instrumented step.
func (m *Manager) SetRecorder(r obs.Recorder) { m.rec.Store(r) }

// SetFaults installs the registry whose fault.SiteCommitPublish every
// commit evaluates. Call it before the manager runs transactions.
func (m *Manager) SetFaults(r *fault.Registry) { m.faults = r }

// Recorder returns the installed recorder, or nil when disabled.
func (m *Manager) Recorder() obs.Recorder { return m.rec.Load() }

// Oracle returns the node's timestamp oracle.
func (m *Manager) Oracle() clock.Oracle { return m.oracle }

// CLOG returns the node's commit log.
func (m *Manager) CLOG() *clog.CLOG { return m.clog }

// WAL returns the node's write-ahead log.
func (m *Manager) WAL() *wal.Log { return m.wal }

// NewGlobalID allocates a cluster-unique transaction id coordinated by this
// node.
func (m *Manager) NewGlobalID() base.TxnID {
	return base.MakeTxnID(m.node, m.seqSeq.Add(1))
}

// AdvanceIdentifiers raises the XID and global-id sequences past identifiers
// recovered from disk. The counters are process-local; without this, a
// restarted node would re-issue XIDs that still appear in the durable WAL
// tail and a second recovery would merge unrelated transactions.
func (m *Manager) AdvanceIdentifiers(xid base.XID, seq uint64) {
	advanceU64(&m.xidSeq, uint64(xid))
	advanceU64(&m.seqSeq, seq)
}

func advanceU64(c *atomic.Uint64, to uint64) {
	for {
		cur := c.Load()
		if cur >= to || c.CompareAndSwap(cur, to) {
			return
		}
	}
}

// Begin starts a local transaction with the given snapshot. A zero startTS
// asks the node's oracle for a fresh snapshot. globalID may be zero for
// purely local transactions.
//
// Snapshot acquisition and registration are one critical section (now per
// stripe): a fresh timestamp must never exist outside the active set, or a
// horizon scan (OldestActiveStartTS) running in the gap would overlook the
// transaction and let a migration retire the source copy it is about to read.
func (m *Manager) Begin(globalID base.TxnID, startTS base.Timestamp) *Txn {
	t := &Txn{
		m:        m,
		XID:      base.XID(m.xidSeq.Add(1)),
		GlobalID: globalID,
		done:     make(chan struct{}),
	}
	if m.rec.Load() != nil {
		t.wallStart = time.Now()
	}
	t.ref = m.clog.Begin(t.XID)
	s := m.activeStripe(t.XID)
	s.mu.Lock()
	if startTS == base.TsZero {
		startTS = m.oracle.StartTS()
	} else {
		m.oracle.Observe(startTS)
	}
	t.StartTS = startTS
	s.txns[t.XID] = t
	s.mu.Unlock()
	return t
}

// Lookup finds an active (or committing/prepared) transaction by xid.
func (m *Manager) Lookup(xid base.XID) (*Txn, bool) {
	s := m.activeStripe(xid)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.txns[xid]
	return t, ok
}

// ActiveCount reports the number of unfinished transactions.
func (m *Manager) ActiveCount() int {
	n := 0
	for i := range m.active {
		s := &m.active[i]
		s.mu.Lock()
		n += len(s.txns)
		s.mu.Unlock()
	}
	return n
}

// ActiveTxns snapshots the unfinished transactions (wait-and-remaster and
// recovery use it).
func (m *Manager) ActiveTxns() []*Txn {
	var out []*Txn
	for i := range m.active {
		s := &m.active[i]
		s.mu.Lock()
		for _, t := range s.txns {
			out = append(out, t)
		}
		s.mu.Unlock()
	}
	return out
}

// TxnsBelow returns the unfinished transactions whose snapshots predate ts.
// Dual execution waits for this set to drain before retiring the source
// shard; wait-and-remaster waits for it (with ts = TsMax) before remastering.
func (m *Manager) TxnsBelow(ts base.Timestamp) []*Txn {
	var out []*Txn
	for i := range m.active {
		s := &m.active[i]
		s.mu.Lock()
		for _, t := range s.txns {
			if t.StartTS < ts {
				out = append(out, t)
			}
		}
		s.mu.Unlock()
	}
	return out
}

// OldestActiveStartTS returns the oldest snapshot still in use (vacuum
// horizon), or base.TsMax when the node is idle.
//
// The scan visits one stripe at a time, so a transaction registering in an
// already-visited stripe is missed — but such a transaction acquired its
// timestamp after this scan began (acquisition happens inside the stripe
// critical section), exactly like a Begin that blocked on the old global
// mutex until the scan finished. The returned horizon therefore bounds the
// same set of snapshots the single-lock scan bounded.
func (m *Manager) OldestActiveStartTS() base.Timestamp {
	oldest := base.TsMax
	for i := range m.active {
		s := &m.active[i]
		s.mu.Lock()
		for _, t := range s.txns {
			if t.StartTS < oldest {
				oldest = t.StartTS
			}
		}
		s.mu.Unlock()
	}
	return oldest
}

// InstallGate installs (or, with nil, removes) the commit gate and returns
// the transactions currently inside their commit path: the TS_unsync set of
// §3.4, which will commit without validation and whose updates must be fully
// propagated before dual execution starts.
func (m *Manager) InstallGate(g CommitGate) []*Txn {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.gate = g
	unsync := make([]*Txn, 0, len(m.committing))
	for _, t := range m.committing {
		unsync = append(unsync, t)
	}
	return unsync
}

// enterCommit atomically checks the gate and registers the transaction as
// committing. It returns the gate in force for this transaction.
func (m *Manager) enterCommit(t *Txn) CommitGate {
	m.commitMu.Lock()
	defer m.commitMu.Unlock()
	m.committing[t.XID] = t
	return m.gate
}

func (m *Manager) exitCommit(t *Txn) {
	m.commitMu.Lock()
	delete(m.committing, t.XID)
	m.commitMu.Unlock()
}

func (m *Manager) finish(t *Txn) {
	t.mu.Lock()
	cleanups, entered := t.cleanups, t.committing
	t.cleanups = nil
	t.mu.Unlock()
	// Only a transaction that entered its commit path is registered there;
	// read-only commits and early aborts skip the node-wide commitMu.
	if entered {
		m.exitCommit(t)
	}
	s := m.activeStripe(t.XID)
	s.mu.Lock()
	delete(s.txns, t.XID)
	s.mu.Unlock()
	for i := len(cleanups) - 1; i >= 0; i-- {
		cleanups[i]()
	}
	close(t.done)
}

// ---------------------------------------------------------------------------
// Txn statement API.

// State returns the transaction's current state: a view of its CLOG word,
// refined by the entered-commit bit while the word is still in progress.
func (t *Txn) State() State {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stateLocked()
}

func (t *Txn) stateLocked() State {
	switch e := t.ref.Entry(); {
	case e.Status == base.StatusCommitted, e.Decided():
		return StateCommitted
	case e.Status == base.StatusAborted:
		return StateAborted
	case e.Status == base.StatusPrepared:
		return StatePrepared
	case t.committing:
		return StateCommitting
	}
	return StateActive
}

// stateErrLocked reports why op cannot run in the transaction's state.
func (t *Txn) stateErrLocked(op string) error {
	st := t.stateLocked()
	if st == StateAborted && t.abortCause != nil {
		return fmt.Errorf("%s of %v: %w", op, t.XID, t.abortCause)
	}
	return fmt.Errorf("%s of %v in state %v: %w", op, t.XID, st, base.ErrTxnFinished)
}

// Done returns a channel closed when the transaction reaches a terminal
// state.
func (t *Txn) Done() <-chan struct{} { return t.done }

// CommitTS returns the commit timestamp (valid once committed).
func (t *Txn) CommitTS() base.Timestamp { return t.ref.Entry().CommitTS }

// WriteCount reports the number of logged mutations.
func (t *Txn) WriteCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.writes)
}

// TouchedShards returns the shards the transaction wrote.
func (t *Txn) TouchedShards() []base.ShardID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]base.ShardID, 0, len(t.shards))
	for s := range t.shards {
		out = append(out, s)
	}
	return out
}

// WroteShard reports whether the transaction wrote the given shard.
func (t *Txn) WroteShard(id base.ShardID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	_, ok := t.shards[id]
	return ok
}

func (t *Txn) ensureActive() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.stateLocked() != StateActive {
		return t.stateErrLocked("statement")
	}
	return nil
}

// Read returns the value of key in store under the transaction's snapshot.
func (t *Txn) Read(store *mvcc.Store, key base.Key) (base.Value, error) {
	if err := t.ensureActive(); err != nil {
		return nil, err
	}
	return store.Read(key, t.StartTS, t.XID)
}

// Scan streams visible tuples of [lo, hi) in store under the snapshot.
func (t *Txn) Scan(store *mvcc.Store, lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	return store.ScanRange(lo, hi, t.StartTS, t.XID, fn)
}

// Write applies a mutation to store, logs it in the WAL and tracks it for
// lock release. On a WW-conflict the error is returned and the caller is
// expected to Abort the transaction.
func (t *Txn) Write(store *mvcc.Store, table base.TableID, shardID base.ShardID, kind mvcc.WriteKind, key base.Key, value base.Value) error {
	if err := t.ensureActive(); err != nil {
		return err
	}
	err := store.Write(mvcc.WriteReq{Kind: kind, Key: key, Value: value, XID: t.XID, Txn: t.GlobalID, StartTS: t.StartTS, Ref: t.ref})
	if err != nil {
		return err
	}
	var recType wal.RecordType
	switch kind {
	case mvcc.WriteInsert:
		recType = wal.RecInsert
	case mvcc.WriteUpdate:
		recType = wal.RecUpdate
	case mvcc.WriteDelete:
		recType = wal.RecDelete
	case mvcc.WriteLock:
		recType = wal.RecLock
	}
	rec := wal.Record{
		Type: recType, XID: t.XID, Txn: t.GlobalID,
		Table: table, Shard: shardID, Key: key, Value: value.Clone(),
		StartTS: t.StartTS,
	}
	t.mu.Lock()
	if st := t.stateLocked(); st != StateActive {
		// The transaction left the active state while the store write ran.
		// Its change record must not follow the prepare or terminal record,
		// and an abort's lock release may have missed this row lock.
		err := t.stateErrLocked("write")
		t.mu.Unlock()
		if st == StateAborted {
			store.ReleaseLocks(t.XID)
		}
		return err
	}
	lsn := t.m.wal.Append(rec)
	if t.firstLSN == 0 {
		t.firstLSN = lsn
	}
	t.writes = append(t.writes, WriteRef{Store: store, Table: table, Shard: shardID, Key: key, Kind: kind})
	if t.shards == nil {
		t.shards = make(map[base.ShardID]struct{})
	}
	t.shards[shardID] = struct{}{}
	t.mu.Unlock()
	return nil
}

func (t *Txn) releaseLocks() {
	t.mu.Lock()
	writes := t.writes
	t.mu.Unlock()
	// Dedup stores with a bounded scratch instead of an allocated set; a txn
	// touching more than a handful of stores just calls ReleaseAll again,
	// which is a no-op once the held set is detached.
	var released [4]*mvcc.Store
	n := 0
outer:
	for _, w := range writes {
		for i := 0; i < n; i++ {
			if released[i] == w.Store {
				continue outer
			}
		}
		w.Store.ReleaseLocks(t.XID)
		if n < len(released) {
			released[n] = w.Store
			n++
		}
	}
}

// ---------------------------------------------------------------------------
// Commit protocol (participant side).

// Prepare runs the participant prepare phase: enter the commit path (passing
// through any installed commit gate), move the CLOG word to prepared and log
// the prepare record — flagged as a MOCC validation record when the gate
// demands it — wait for validation, and return this participant's prepare
// timestamp. On validation failure the transaction is aborted and the error
// returned.
func (t *Txn) Prepare() (base.Timestamp, error) {
	t.mu.Lock()
	if t.stateLocked() != StateActive {
		err := t.stateErrLocked("prepare")
		t.mu.Unlock()
		return 0, err
	}
	t.committing = true
	// Registered under mu while the word is in progress, so an abort's
	// finish — which runs after its CAS — always deregisters it.
	gate := t.m.enterCommit(t)
	t.mu.Unlock()
	validate := gate != nil && gate.NeedsValidation(t)

	t.mu.Lock()
	if err := t.ref.SetPrepared(); err != nil {
		// Aborted since it entered the commit path; the aborter finished it.
		err = t.stateErrLocked("prepare")
		t.mu.Unlock()
		return 0, err
	}
	t.m.wal.Append(wal.Record{
		Type: wal.RecPrepare, XID: t.XID, Txn: t.GlobalID,
		StartTS: t.StartTS, Validation: validate,
	})
	t.mu.Unlock()

	if validate {
		if err := gate.WaitValidation(t); err != nil {
			err = fmt.Errorf("mocc validation of %v: %w", t.XID, err)
			_ = t.abort(err, true) // fails only if a racing abort already won
			return 0, err
		}
	}
	return t.m.oracle.PrepareTS(), nil
}

// CommitAt completes the transaction with the given commit timestamp
// (assigned by the coordinator after all participants prepared). The commit
// is durable before it is visible, as in PostgreSQL: the word moves to
// decided — final, so no abort can revoke it, and readers still
// prepare-wait on it — and the commit record is appended, both under mu;
// then the record is synced and only then is the word published as
// committed. A sync that already covers the record costs nothing.
func (t *Txn) CommitAt(ts base.Timestamp) error {
	t.m.oracle.Observe(ts)
	t.mu.Lock()
	if t.stateLocked() != StatePrepared {
		err := t.stateErrLocked("commit")
		t.mu.Unlock()
		return err
	}
	if err := t.ref.SetDecided(ts); err != nil {
		t.mu.Unlock()
		return err
	}
	lsn := t.m.wal.Append(wal.Record{
		Type: wal.RecCommit, XID: t.XID, Txn: t.GlobalID,
		StartTS: t.StartTS, CommitTS: ts,
	})
	t.mu.Unlock()
	t.m.wal.SyncTo(lsn)
	// An injected error models a failed publication attempt and is retried:
	// the decision is durable and final, and the coordinator may already
	// have committed the other participants.
	for t.m.faults.Eval(fault.SiteCommitPublish) != nil {
	}
	// Only this call moves a decided word, so this cannot fail.
	if err := t.ref.SetCommitted(ts); err != nil {
		panic(err)
	}
	t.releaseLocks()
	t.finishCommit()
	return nil
}

// CommitReadOnly commits, at ts, a transaction that logged nothing: it wrote
// nothing, so there is no record to make durable, no vote to take and no
// timestamp to draw. The word moves straight to committed. It fails on a
// transaction that logged a record or left the active state; an abort
// cause, if one was recorded, is reported.
func (t *Txn) CommitReadOnly(ts base.Timestamp) error {
	t.mu.Lock()
	var err error
	switch {
	case t.stateLocked() != StateActive:
		err = t.stateErrLocked("commit")
	case t.firstLSN != 0:
		err = fmt.Errorf("read-only commit of %v, which logged from %v", t.XID, t.firstLSN)
	default:
		// Aborts CAS under mu as well, so the active word cannot move here.
		err = t.ref.SetCommitted(ts)
	}
	t.mu.Unlock()
	if err != nil {
		return err
	}
	t.finishCommit()
	return nil
}

// finishCommit unregisters a committed transaction and records it.
func (t *Txn) finishCommit() {
	t.m.finish(t)
	if r := t.m.rec.Load(); r != nil {
		r.Add(obs.CtrCommits, 1)
		if !t.wallStart.IsZero() {
			r.Observe(obs.HistCommitLatency, uint64(time.Since(t.wallStart)))
		}
	}
}

// Commit runs the full single-participant commit: prepare (marking the CLOG
// prepared before the commit timestamp is assigned, as §2.2 requires even
// for single-node transactions), assign the commit timestamp, commit.
func (t *Txn) Commit() (base.Timestamp, error) {
	prepTS, err := t.Prepare()
	if err != nil {
		return 0, err
	}
	ts := t.m.oracle.CommitTS(prepTS)
	if err := t.CommitAt(ts); err != nil {
		return 0, err
	}
	return ts, nil
}

// Abort rolls the transaction back from the active, committing or prepared
// state; a coordinator may abort a participant that voted yes until it
// decides to commit. Aborting an aborted transaction is a no-op; aborting a
// committed or decided one fails with base.ErrTxnFinished.
func (t *Txn) Abort() error { return t.abort(nil, true) }

// AbortWith is Abort recording a cause: subsequent statements and commit
// attempts by the transaction's own session report it (e.g.
// base.ErrMigrationAbort when lock-and-abort kills writers, §2.3.3). The
// cause sticks only if this call is the one that aborts the transaction.
func (t *Txn) AbortWith(cause error) error { return t.abort(cause, true) }

// AbortUnprepared is AbortWith for third parties that must not override a
// yes vote (node crash, migration recovery): it aborts only a transaction
// that has not prepared, decided by the same CAS that aborts it, and fails
// on a prepared one, whose outcome belongs to its coordinator.
func (t *Txn) AbortUnprepared(cause error) error { return t.abort(cause, false) }

// abort moves the word to aborted and logs the abort record in one critical
// section; the winner runs finish, exactly once. It leaves a prepared word
// alone unless prepared is set.
func (t *Txn) abort(cause error, prepared bool) error {
	t.mu.Lock()
	switch st := t.stateLocked(); {
	case st == StateAborted:
		t.mu.Unlock()
		return nil
	case st == StatePrepared && !prepared:
		t.mu.Unlock()
		return fmt.Errorf("abort of prepared %v: its coordinator decides", t.XID)
	}
	if err := t.ref.SetAborted(); err != nil {
		err = t.stateErrLocked("abort")
		t.mu.Unlock()
		return err
	}
	t.abortCause = cause
	t.m.wal.Append(wal.Record{Type: wal.RecAbort, XID: t.XID, Txn: t.GlobalID, StartTS: t.StartTS})
	t.mu.Unlock()
	t.releaseLocks()
	t.m.finish(t)
	if r := t.m.rec.Load(); r != nil {
		tag := obs.ClassifyAbort(cause)
		r.Add(obs.CtrAborts, 1)
		switch tag {
		case obs.CauseMigration:
			r.Add(obs.CtrMigrationAborts, 1)
		case obs.CauseWWConflict:
			r.Add(obs.CtrWWConflicts, 1)
		}
		r.Event(obs.Event{
			Kind: obs.EvAbort, XID: t.XID, Txn: t.GlobalID,
			Node: t.m.node, Cause: tag,
		})
	}
	return nil
}
