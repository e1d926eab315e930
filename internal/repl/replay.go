// Package repl is the migration replication substrate shared by Remus and
// the push baselines: streaming MVCC snapshot copy (§3.2), the WAL
// propagation process with per-transaction update cache queues and
// spill-to-disk (§3.3), and the destination replay process with
// transaction-level parallel apply (§3.6).
package repl

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/mvcc"
	"remus/internal/node"
	"remus/internal/obs"
	"remus/internal/txn"
	"remus/internal/wal"
)

// errReplayerClosed is the outcome of tasks rejected or drained by Close.
// One shared value: enqueue rejection sits on the recovery hot path of a
// jammed stream, where a fresh fmt.Errorf per drained task is pure garbage.
var errReplayerClosed = errors.New("replayer closed")

// taskKind enumerates replay work items.
type taskKind uint8

const (
	// taskApply replays a fully committed source transaction (async phase):
	// begin a shadow txn with the source start timestamp, re-execute the
	// changes, commit with the source commit timestamp.
	taskApply taskKind = iota + 1
	// taskValidate replays a synchronized source transaction's changes and
	// 2PC-prepares the shadow transaction (MOCC validation stage); the
	// result is reported to the validation sink.
	taskValidate
	// taskCommitShadow commits a previously prepared shadow transaction
	// with the source commit timestamp (MOCC commit stage).
	taskCommitShadow
	// taskAbortShadow rolls back a previously prepared shadow transaction
	// (the source transaction aborted after validation, e.g. a distributed
	// transaction whose other participants failed).
	taskAbortShadow
)

type depKey struct {
	shard base.ShardID
	key   base.Key
}

// task is one unit of replay work with its per-key dependencies.
type task struct {
	kind     taskKind
	xid      base.XID // source transaction id
	globalID base.TxnID
	startTS  base.Timestamp
	commitTS base.Timestamp
	records  []wal.Record
	deps     []*task
	done     chan struct{}
	err      error
}

// dependsOn reports whether dep is already in t's dependency list. Write
// sets are small, so the linear scan replaces the per-enqueue map
// allocation the old dedup paid.
func (t *task) dependsOn(dep *task) bool {
	for _, d := range t.deps {
		if d == dep {
			return true
		}
	}
	return false
}

// depStripes is the lock-stripe count of the last-writer index. Power of
// two (the stripe hash masks into it); 32 stripes keep the probability of
// two disjoint transactions colliding on a stripe low at replay worker
// counts that fit one machine.
const depStripes = 32

// depStripe is one shard of the last-writer-per-key index.
type depStripe struct {
	mu   sync.Mutex
	last map[depKey]*task
	_    [40]byte // pad to a cache line so stripes don't false-share
}

// stripeOf hashes a dependency key onto its stripe (FNV-1a over the shard
// id and key bytes).
func stripeOf(k depKey) uint32 {
	h := uint32(2166136261)
	h ^= uint32(k.shard)
	h *= 16777619
	for i := 0; i < len(k.key); i++ {
		h ^= uint32(k.key[i])
		h *= 16777619
	}
	return h & (depStripes - 1)
}

// Replayer applies propagated source transactions on the destination node,
// in source commit order per tuple, in parallel across disjoint
// transactions.
type Replayer struct {
	dst     *node.Node
	workers int
	faults  *fault.Registry
	rec     obs.Recorder

	tasks chan *task

	// stripes is the last-writer-per-key dependency index. A task locks
	// only the stripes its write set touches, in ascending stripe order
	// (deterministic, so concurrent multi-stripe registrations cannot
	// deadlock), and holds them all while it registers — registration is
	// atomic per task, which keeps the dependency graph acyclic.
	stripes [depStripes]depStripe

	mu      sync.Mutex
	shadows map[base.XID]*txn.Txn // prepared shadows awaiting their outcome
	// validating holds each xid's validate task until the shadow's commit
	// or abort is submitted. The outcome depends on it: it must not run
	// before the shadow it resolves exists.
	validating map[base.XID]*task
	closed     bool

	// closing unsticks enqueuers blocked on a full task queue when Close
	// runs (a dead migration's propagator must not deadlock recovery), and
	// sendWG lets Close wait until no sender is mid-send before the task
	// channel itself is closed.
	closing chan struct{}
	sendWG  sync.WaitGroup

	enqueued  atomic.Uint64
	completed atomic.Uint64
	applied   atomic.Uint64 // records applied
	conflicts atomic.Uint64 // WW-conflicts detected during validation

	// prog pulses on every completed task; catch-up waiters park on it.
	prog *notifier

	// barrierWaiters gates the per-task broadcast: workers skip the barrier
	// mutex entirely while nobody is inside Barrier (the steady state).
	barrierWaiters atomic.Int64
	barrierMu      sync.Mutex
	barrierC       *sync.Cond

	// sink receives validation outcomes (MOCC ack channel back to the
	// source's commit gate). May be nil in async-only uses.
	sink func(xid base.XID, err error)

	wg sync.WaitGroup
}

// NodeID returns the destination node's id (the receive end of the link the
// propagator ships over).
func (r *Replayer) NodeID() base.NodeID { return r.dst.ID() }

// NewReplayer starts a replay pool of the given parallelism on dst. faults
// (fault.SiteValidateStart) and rec may be nil (injection/observability
// disabled).
func NewReplayer(dst *node.Node, workers int, sink func(base.XID, error), faults *fault.Registry, rec obs.Recorder) *Replayer {
	if workers <= 0 {
		workers = 1
	}
	r := &Replayer{
		dst:        dst,
		workers:    workers,
		faults:     faults,
		rec:        rec,
		tasks:      make(chan *task, 4096),
		shadows:    make(map[base.XID]*txn.Txn),
		validating: make(map[base.XID]*task),
		closing:    make(chan struct{}),
		prog:       newNotifier(),
		sink:       sink,
	}
	for i := range r.stripes {
		r.stripes[i].last = make(map[depKey]*task)
	}
	r.barrierC = sync.NewCond(&r.barrierMu)
	for i := 0; i < workers; i++ {
		r.wg.Add(1)
		go r.worker()
	}
	return r
}

// Close drains and stops the workers. Queued commits and aborts of
// prepared shadows still run; queued applies and validations fail with a
// "replayer closed" outcome, and so does an enqueuer blocked on a full task
// queue — Close must terminate even when the queue jammed (e.g. a crashed
// migration's validation convoy, where prepared shadows hold row locks
// whose releases sit behind thousands of queued tasks).
func (r *Replayer) Close() {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	r.closed = true
	r.mu.Unlock()
	close(r.closing)
	r.sendWG.Wait() // no sender may be mid-send when the channel closes
	close(r.tasks)
	r.wg.Wait()
}

// Applied reports the number of change records applied.
func (r *Replayer) Applied() uint64 { return r.applied.Load() }

// Conflicts reports the number of WW-conflicts found during validation.
func (r *Replayer) Conflicts() uint64 { return r.conflicts.Load() }

// Pending reports tasks enqueued but not yet completed.
func (r *Replayer) Pending() uint64 {
	return r.enqueued.Load() - r.completed.Load()
}

// registerDeps links t behind the latest earlier task writing each of its
// keys. All touched stripes are locked together (ascending order) so
// registration is atomic: a task enqueued later can never end up ordered
// before an earlier one on any shared key.
func (r *Replayer) registerDeps(t *task) {
	if len(t.records) == 0 {
		return
	}
	var touched [depStripes]bool
	for i := range t.records {
		touched[stripeOf(depKey{t.records[i].Shard, t.records[i].Key})] = true
	}
	for s := 0; s < depStripes; s++ {
		if touched[s] {
			r.stripes[s].mu.Lock()
		}
	}
	for i := range t.records {
		rec := &t.records[i]
		k := depKey{rec.Shard, rec.Key}
		st := &r.stripes[stripeOf(k)]
		if prev := st.last[k]; prev != nil && prev != t && !t.dependsOn(prev) {
			t.deps = append(t.deps, prev)
		}
		st.last[k] = t
	}
	for s := 0; s < depStripes; s++ {
		if touched[s] {
			r.stripes[s].mu.Unlock()
		}
	}
}

// enqueue registers dependencies and dispatches the task.
func (r *Replayer) enqueue(t *task) {
	t.done = make(chan struct{})
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		t.err = errReplayerClosed
		close(t.done)
		return
	}
	r.sendWG.Add(1) // under mu: Close sets closed before it waits
	r.mu.Unlock()
	defer r.sendWG.Done()
	r.registerDeps(t)
	r.enqueued.Add(1)
	select {
	case r.tasks <- t:
	case <-r.closing:
		t.err = errReplayerClosed
		r.completed.Add(1) // keep the enqueued/completed barrier balanced
		close(t.done)
		r.wakeBarrier()
		r.prog.Pulse()
	}
}

// SubmitApply schedules the async-phase replay of a committed source
// transaction. The record slice's ownership moves to the replayer, which
// recycles it once the task completes.
func (r *Replayer) SubmitApply(xid base.XID, globalID base.TxnID, startTS, commitTS base.Timestamp, records []wal.Record) {
	r.enqueue(&task{kind: taskApply, xid: xid, globalID: globalID, startTS: startTS, commitTS: commitTS, records: records})
}

// SubmitValidate schedules the MOCC validation of a synchronized source
// transaction; the outcome reaches the validation sink.
func (r *Replayer) SubmitValidate(xid base.XID, globalID base.TxnID, startTS base.Timestamp, records []wal.Record) {
	t := &task{kind: taskValidate, xid: xid, globalID: globalID, startTS: startTS, records: records}
	r.mu.Lock()
	r.validating[xid] = t
	r.mu.Unlock()
	r.enqueue(t)
}

// SubmitCommitShadow schedules the commit of a prepared shadow transaction.
// The task re-registers the shadow's keys so later replay of those tuples
// orders after the shadow's commit (the shadow holds their row locks until
// then).
func (r *Replayer) SubmitCommitShadow(xid base.XID, commitTS base.Timestamp) {
	r.enqueue(r.outcomeTask(taskCommitShadow, xid, commitTS))
}

// SubmitAbortShadow schedules the rollback of a prepared shadow transaction
// (no-op if validation already failed and nothing is prepared).
func (r *Replayer) SubmitAbortShadow(xid base.XID) {
	r.enqueue(r.outcomeTask(taskAbortShadow, xid, 0))
}

// outcomeTask builds the commit or abort task of xid's shadow, ordered
// behind xid's validate task and re-registering its keys.
func (r *Replayer) outcomeTask(kind taskKind, xid base.XID, commitTS base.Timestamp) *task {
	t := &task{kind: kind, xid: xid, commitTS: commitTS}
	r.mu.Lock()
	v := r.validating[xid]
	delete(r.validating, xid)
	r.mu.Unlock()
	if v != nil {
		t.deps = []*task{v}
		t.records = v.records
	}
	return t
}

// Barrier blocks until every task enqueued before the call has completed.
// The mode-change phase uses it to establish that all changes up to
// LSN_unsync are applied (§3.4).
func (r *Replayer) Barrier() {
	target := r.enqueued.Load()
	r.barrierMu.Lock()
	defer r.barrierMu.Unlock()
	// Registered before the re-check: a worker either sees the waiter count
	// and broadcasts, or its completion increment is already visible to the
	// loop condition below (both sides are sequentially consistent
	// atomics), so the wakeup cannot be lost.
	r.barrierWaiters.Add(1)
	defer r.barrierWaiters.Add(-1)
	for r.completed.Load() < target {
		r.barrierC.Wait()
	}
}

// wakeBarrier broadcasts task completion to Barrier waiters; with none
// registered it is one atomic load.
func (r *Replayer) wakeBarrier() {
	if r.barrierWaiters.Load() == 0 {
		return
	}
	r.barrierMu.Lock()
	r.barrierC.Broadcast()
	r.barrierMu.Unlock()
}

func (r *Replayer) worker() {
	defer r.wg.Done()
	for t := range r.tasks {
		for _, dep := range t.deps {
			<-dep.done
		}
		if r.draining(t) {
			// Close is draining the queue: fail an apply or validation
			// without touching the store. A jammed validation convoy would
			// otherwise cost a full lock-timeout per queued task, stalling
			// Close for minutes; whoever closed the replayer resolves
			// leftover shadows itself.
			t.err = errReplayerClosed
			if t.kind == taskValidate && r.sink != nil {
				r.sink(t.xid, t.err)
			}
		} else {
			t.err = r.run(t)
		}
		// Apply-task record slices recycle once the task is done: the
		// dependency index retains the task pointer (dependents wait on
		// done, not records), but nothing reads an apply task's records
		// again. Validation records stay — the commit/abort shadow task
		// re-registers them.
		var recycle []wal.Record
		if t.kind == taskApply {
			recycle = t.records
			t.records = nil
		}
		r.completed.Add(1)
		close(t.done)
		r.wakeBarrier()
		r.prog.Pulse()
		if recycle != nil {
			putRecs(recycle)
		}
	}
}

// draining reports whether Close is draining the queue and t is work Close
// fails rather than runs. The commit or abort of a prepared shadow still
// runs: it waits for no row lock, and dropping it would leave the shadow
// prepared after the migration is gone.
func (r *Replayer) draining(t *task) bool {
	select {
	case <-r.closing:
	default:
		return false
	}
	if t.kind == taskCommitShadow || t.kind == taskAbortShadow {
		r.mu.Lock()
		_, prepared := r.shadows[t.xid]
		r.mu.Unlock()
		return !prepared
	}
	return true
}

func (r *Replayer) run(t *task) error {
	switch t.kind {
	case taskApply:
		return r.runApply(t)
	case taskValidate:
		err := r.runValidate(t)
		if r.sink != nil {
			r.sink(t.xid, err)
		}
		return err
	case taskCommitShadow:
		return r.runCommitShadow(t)
	case taskAbortShadow:
		return r.runAbortShadow(t)
	}
	return fmt.Errorf("repl: unknown task kind %d", t.kind)
}

// applyRecords re-executes a source transaction's changes under shadow. The
// shard's store and table are resolved once per run (tasks overwhelmingly
// touch one shard) instead of per record, and the applied counters are
// batched per call.
func (r *Replayer) applyRecords(shadow *txn.Txn, records []wal.Record) error {
	var (
		store    *mvcc.Store
		table    base.TableID
		curShard base.ShardID
		resolved bool
		n        int
	)
	defer func() {
		if n > 0 {
			r.applied.Add(uint64(n))
			if r.rec != nil {
				r.rec.Add(obs.CtrReplayApplied, uint64(n))
			}
		}
	}()
	for i := range records {
		rec := &records[i]
		var kind mvcc.WriteKind
		switch rec.Type {
		case wal.RecInsert:
			kind = mvcc.WriteInsert
		case wal.RecUpdate:
			kind = mvcc.WriteUpdate
		case wal.RecDelete:
			kind = mvcc.WriteDelete
		case wal.RecLock:
			kind = mvcc.WriteLock
		default:
			return fmt.Errorf("repl: change record with type %v", rec.Type)
		}
		if !resolved || rec.Shard != curShard {
			var ok bool
			store, table, ok = r.dst.StoreAndTable(rec.Shard)
			if !ok {
				return fmt.Errorf("apply to %v on %v: %w", rec.Shard, r.dst.ID(), base.ErrShardMoved)
			}
			curShard, resolved = rec.Shard, true
		}
		if err := r.dst.ApplyWriteTo(shadow, store, table, rec.Shard, kind, rec.Key, rec.Value); err != nil {
			return err
		}
		n++
	}
	return nil
}

// runApply replays one committed source transaction (async phase): same
// start timestamp, same commit timestamp (§3.3).
func (r *Replayer) runApply(t *task) error {
	shadow := r.dst.Manager().Begin(t.globalID, t.startTS)
	if err := r.applyRecords(shadow, t.records); err != nil {
		_ = shadow.Abort()
		return fmt.Errorf("repl: apply %v: %w", t.xid, err)
	}
	if _, err := shadow.Prepare(); err != nil {
		_ = shadow.Abort()
		return err
	}
	return shadow.CommitAt(t.commitTS)
}

// runValidate is the MOCC validation stage (§3.5.2): re-execute the changes;
// any dead tuple or newer version is a WW-conflict that aborts both the
// shadow and (through the sink) the source transaction. On success the
// shadow is 2PC-prepared; its prepared status blocks destination readers of
// its writes until the commit decision arrives (distributed SI).
func (r *Replayer) runValidate(t *task) error {
	if err := r.faults.Eval(fault.SiteValidateStart); err != nil {
		return fmt.Errorf("repl: validate %v: %w", t.xid, err)
	}
	shadow := r.dst.Manager().Begin(t.globalID, t.startTS)
	if err := r.applyRecords(shadow, t.records); err != nil {
		_ = shadow.Abort()
		r.conflicts.Add(1)
		if r.rec != nil {
			r.rec.Add(obs.CtrReplayConflicts, 1)
			r.rec.Event(obs.Event{
				Kind: obs.EvDivergence, XID: t.xid, Txn: t.globalID,
				Node: r.dst.ID(), Cause: obs.CauseWWConflict,
			})
		}
		return fmt.Errorf("repl: validate %v: %w", t.xid, err)
	}
	if _, err := shadow.Prepare(); err != nil {
		_ = shadow.Abort()
		return err
	}
	r.mu.Lock()
	r.shadows[t.xid] = shadow
	r.mu.Unlock()
	return nil
}

func (r *Replayer) takeShadow(xid base.XID) (*txn.Txn, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.shadows[xid]
	if ok {
		delete(r.shadows, xid)
	}
	return s, ok
}

func (r *Replayer) runCommitShadow(t *task) error {
	s, ok := r.takeShadow(t.xid)
	if !ok {
		if r.rec != nil {
			r.rec.Event(obs.Event{
				Kind: obs.EvDivergence, XID: t.xid, Node: r.dst.ID(),
				Cause: obs.CauseOther, Note: "commit of unknown shadow",
			})
		}
		return fmt.Errorf("repl: commit of unknown shadow for %v", t.xid)
	}
	return s.CommitAt(t.commitTS)
}

func (r *Replayer) runAbortShadow(t *task) error {
	s, ok := r.takeShadow(t.xid)
	if !ok {
		return nil // validation failed; nothing prepared
	}
	if r.rec != nil {
		r.rec.Event(obs.Event{
			Kind: obs.EvDivergence, XID: t.xid, Node: r.dst.ID(),
			Cause: obs.CauseMigration, Note: "prepared shadow rolled back",
		})
	}
	return s.Abort()
}

// PreparedShadows reports the number of prepared shadows awaiting outcomes
// (crash recovery inspects this).
func (r *Replayer) PreparedShadows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.shadows)
}

// ResidualShadows returns the xids of prepared shadow transactions that have
// not received a commit/rollback decision (crash recovery, §3.7).
func (r *Replayer) ResidualShadows() []base.XID {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]base.XID, 0, len(r.shadows))
	for xid := range r.shadows {
		out = append(out, xid)
	}
	return out
}

// ResolveShadow commits or aborts a residual prepared shadow according to
// the source transaction's recovered outcome (§3.7).
func (r *Replayer) ResolveShadow(xid base.XID, commit bool, cts base.Timestamp) error {
	s, ok := r.takeShadow(xid)
	if !ok {
		return fmt.Errorf("repl: resolve of unknown shadow for %v", xid)
	}
	if commit {
		return s.CommitAt(cts)
	}
	return s.Abort()
}
