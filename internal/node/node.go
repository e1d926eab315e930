// Package node implements an elastic node of the cluster (§2.1): a
// PostgreSQL-like instance holding shard stores, a WAL, a CLOG, a timestamp
// oracle and a transaction manager, plus the shard map table and the
// per-node migration state (shard phases, cache-read-through marks, access
// hooks for migration approaches).
package node

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/clog"
	"remus/internal/mvcc"
	"remus/internal/obs"
	"remus/internal/shard"
	"remus/internal/simnet"
	"remus/internal/txn"
	"remus/internal/wal"
)

// MapShardID is the pseudo shard id of the node-local shard map table. It is
// exempt from phase checks and hooks; every node always owns its map.
const MapShardID base.ShardID = -2

// MapTableID is the pseudo table id of the shard map table.
const MapTableID base.TableID = -2

// Phase is the migration lifecycle position of a shard on one node.
type Phase uint8

const (
	// PhaseNone: the shard does not live here.
	PhaseNone Phase = iota
	// PhaseOwned: serving normally.
	PhaseOwned
	// PhaseSource: dual execution source — only transactions whose
	// snapshots predate the diversion barrier may access the shard.
	PhaseSource
	// PhaseDest: migration destination — replay only; user access rejected
	// until activation.
	PhaseDest
	// PhaseDestActive: destination during dual execution — user
	// transactions (all routed here with startTS >= T_m.commitTS) and
	// shadow-transaction replay run concurrently.
	PhaseDestActive
)

func (p Phase) String() string {
	switch p {
	case PhaseNone:
		return "none"
	case PhaseOwned:
		return "owned"
	case PhaseSource:
		return "source"
	case PhaseDest:
		return "dest"
	case PhaseDestActive:
		return "dest-active"
	default:
		return fmt.Sprintf("phase(%d)", uint8(p))
	}
}

// AccessHook intercepts statement execution on a shard. Migration baselines
// install hooks: lock-and-abort blocks/aborts writers of migrating shards,
// Squall takes H-store-style shard locks and triggers on-demand pulls. key
// is empty for whole-shard scans. A hook returning an error fails the
// statement; a hook may also block (e.g. during a chunk pull or an ownership
// transfer).
type AccessHook func(t *txn.Txn, shardID base.ShardID, key base.Key, write bool) error

type shardState struct {
	store    *mvcc.Store
	table    base.TableID
	phase    Phase
	divertTS base.Timestamp // PhaseSource: T_m's commit timestamp
	load     shard.LoadCounter
}

// Counters are the node's work-unit counters, the CPU-usage proxy of the
// Fig 10 reproduction (see DESIGN.md §1).
type Counters struct {
	ForegroundOps  atomic.Uint64 // user statement executions
	ReplayOps      atomic.Uint64 // migration replay work on this node
	PropagationOps atomic.Uint64 // WAL extraction/shipping work on this node
	SnapshotOps    atomic.Uint64 // snapshot scan/install work on this node
}

// Node is one elastic node.
type Node struct {
	id     base.NodeID
	net    *simnet.Network
	oracle clock.Oracle
	clog   *clog.CLOG
	wal    *wal.Log
	mgr    *txn.Manager
	cfg    mvcc.Config

	mapStore    *mvcc.Store
	readThrough *shard.ReadThrough

	mu     sync.RWMutex
	shards map[base.ShardID]*shardState

	hookMu sync.RWMutex
	hooks  map[int]AccessHook
	hookID int

	crashed atomic.Bool

	// throttle paces foreground statement execution, modelling a node's
	// finite CPU capacity. Without it an in-process "node" serves unbounded
	// load and hotspot dispersal (Figures 8-9) would never pay off.
	throttleMu   sync.Mutex
	throttleStep time.Duration
	throttleNext time.Time

	// holds pins WAL positions against checkpoints (see checkpoint.go).
	holds walHolds

	Counters Counters
}

// SetOpsLimit bounds the node's foreground statement rate (0 = unlimited).
func (n *Node) SetOpsLimit(opsPerSec int) {
	n.throttleMu.Lock()
	defer n.throttleMu.Unlock()
	if opsPerSec <= 0 {
		n.throttleStep = 0
		return
	}
	n.throttleStep = time.Second / time.Duration(opsPerSec)
	n.throttleNext = time.Time{}
}

// throttleWait paces one statement. Debt under a millisecond accumulates
// instead of sleeping (Go timers cannot sleep microseconds precisely).
func (n *Node) throttleWait() {
	n.throttleMu.Lock()
	step := n.throttleStep
	if step == 0 {
		n.throttleMu.Unlock()
		return
	}
	now := time.Now()
	if n.throttleNext.Before(now) {
		n.throttleNext = now
	}
	n.throttleNext = n.throttleNext.Add(step)
	wake := n.throttleNext
	n.throttleMu.Unlock()
	if d := time.Until(wake); d > time.Millisecond {
		time.Sleep(d)
	}
}

// New creates a node with its own CLOG, WAL, transaction manager and shard
// map table.
func New(id base.NodeID, net *simnet.Network, oracle clock.Oracle, cfg mvcc.Config) *Node {
	cl := clog.New()
	w := wal.New()
	n := &Node{
		id:          id,
		net:         net,
		oracle:      oracle,
		clog:        cl,
		wal:         w,
		cfg:         cfg,
		readThrough: shard.NewReadThrough(),
		shards:      make(map[base.ShardID]*shardState),
		hooks:       make(map[int]AccessHook),
	}
	n.mgr = txn.NewManager(id, cl, w, oracle, cfg)
	n.mapStore = mvcc.NewStore(cl, cfg)
	return n
}

// ID returns the node's id.
func (n *Node) ID() base.NodeID { return n.id }

// Manager returns the node's transaction manager.
func (n *Node) Manager() *txn.Manager { return n.mgr }

// SetRecorder installs (or, with nil, removes) the observability recorder on
// the node's transaction manager.
func (n *Node) SetRecorder(r obs.Recorder) { n.mgr.SetRecorder(r) }

// Oracle returns the node's timestamp oracle.
func (n *Node) Oracle() clock.Oracle { return n.oracle }

// WAL returns the node's write-ahead log.
func (n *Node) WAL() *wal.Log { return n.wal }

// CLOG returns the node's commit log.
func (n *Node) CLOG() *clog.CLOG { return n.clog }

// Net returns the cluster interconnect.
func (n *Node) Net() *simnet.Network { return n.net }

// ReadThrough returns the node's cache-read-through state.
func (n *Node) ReadThrough() *shard.ReadThrough { return n.readThrough }

// ---------------------------------------------------------------------------
// Shard lifecycle.

// AddShard creates (or adopts) a shard store in the given phase.
func (n *Node) AddShard(id base.ShardID, table base.TableID, phase Phase) *mvcc.Store {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.shards[id]; ok {
		st.phase = phase
		return st.store
	}
	st := &shardState{store: mvcc.NewStore(n.clog, n.cfg), table: table, phase: phase}
	n.shards[id] = st
	return st.store
}

// PhaseOf reports a shard's phase on this node.
func (n *Node) PhaseOf(id base.ShardID) Phase {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st, ok := n.shards[id]; ok {
		return st.phase
	}
	return PhaseNone
}

// SetPhase transitions a shard's phase.
func (n *Node) SetPhase(id base.ShardID, phase Phase) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.shards[id]; ok {
		st.phase = phase
	}
}

// DivertSource marks the shard as a dual-execution source: transactions with
// snapshots at or above divertTS (T_m's commit timestamp) are rejected with
// ErrShardMoved (they belong on the destination).
func (n *Node) DivertSource(id base.ShardID, divertTS base.Timestamp) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if st, ok := n.shards[id]; ok {
		st.phase = PhaseSource
		st.divertTS = divertTS
	}
}

// DropShard removes a shard and its data (end of migration on the source,
// or rollback cleanup on the destination).
func (n *Node) DropShard(id base.ShardID) {
	n.mu.Lock()
	st, ok := n.shards[id]
	if ok {
		delete(n.shards, id)
	}
	n.mu.Unlock()
	if ok {
		st.store.DropAll()
	}
}

// Store returns the shard's store regardless of phase (migration internals);
// ok is false if the shard does not live here.
func (n *Node) Store(id base.ShardID) (*mvcc.Store, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st, ok := n.shards[id]; ok {
		return st.store, true
	}
	return nil, false
}

// Shards lists the shard ids present on this node (any phase) in ascending
// order. The deterministic order keeps planner decisions and tests
// reproducible across runs (map iteration order is randomized).
func (n *Node) Shards() []base.ShardID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]base.ShardID, 0, len(n.shards))
	for id := range n.shards {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ShardLoadEntry reports one local shard's cumulative access counts.
type ShardLoadEntry struct {
	Shard base.ShardID
	Table base.TableID
	Phase Phase
	Load  shard.LoadSnapshot
}

// ShardLoads returns the cumulative access counters of every local shard in
// ascending shard order — the node-level half of the cluster's live load
// view. Counters restart from zero when a shard copy is dropped and later
// re-created (consumers difference snapshots with clamping).
func (n *Node) ShardLoads() []ShardLoadEntry {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]ShardLoadEntry, 0, len(n.shards))
	for id, st := range n.shards {
		out = append(out, ShardLoadEntry{Shard: id, Table: st.table, Phase: st.phase, Load: st.load.Snapshot()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// TableOf returns the table a local shard belongs to.
func (n *Node) TableOf(id base.ShardID) (base.TableID, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st, ok := n.shards[id]; ok {
		return st.table, true
	}
	return 0, false
}

// StoreAndTable resolves a shard's store and table in one lock acquisition.
// The replay hot path caches the result per task instead of paying Store +
// TableOf (two RLock round-trips) for every record.
func (n *Node) StoreAndTable(id base.ShardID) (*mvcc.Store, base.TableID, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if st, ok := n.shards[id]; ok {
		return st.store, st.table, true
	}
	return nil, 0, false
}

// ---------------------------------------------------------------------------
// Access hooks.

// AddHook installs an access hook and returns a handle for removal.
func (n *Node) AddHook(h AccessHook) int {
	n.hookMu.Lock()
	defer n.hookMu.Unlock()
	n.hookID++
	n.hooks[n.hookID] = h
	return n.hookID
}

// RemoveHook uninstalls a hook by handle.
func (n *Node) RemoveHook(handle int) {
	n.hookMu.Lock()
	defer n.hookMu.Unlock()
	delete(n.hooks, handle)
}

func (n *Node) runHooks(t *txn.Txn, shardID base.ShardID, key base.Key, write bool) error {
	n.hookMu.RLock()
	ids := make([]int, 0, len(n.hooks))
	for id := range n.hooks {
		ids = append(ids, id)
	}
	sort.Ints(ids) // installation order: CC hooks run before migration hooks
	hooks := make([]AccessHook, 0, len(ids))
	for _, id := range ids {
		hooks = append(hooks, n.hooks[id])
	}
	n.hookMu.RUnlock()
	for _, h := range hooks {
		if err := h(t, shardID, key, write); err != nil {
			return err
		}
	}
	return nil
}

// ---------------------------------------------------------------------------
// Crash injection.

// Crash makes every subsequent operation fail with ErrNodeDown and aborts
// the node's in-flight transactions (their work is lost, like a real crash;
// the CLOG treats unfinished transactions as rolled back). Prepared
// transactions survive: their state is durable and 2PC recovery resolves
// them (§3.7).
func (n *Node) Crash() {
	if !n.crashed.CompareAndSwap(false, true) {
		return
	}
	for _, t := range n.mgr.ActiveTxns() {
		_ = t.AbortUnprepared(nil)
	}
}

// Recover clears the crash flag. Residual distributed state is resolved by
// the migration recovery procedure (§3.7), not here.
func (n *Node) Recover() { n.crashed.Store(false) }

// Crashed reports the crash flag.
func (n *Node) Crashed() bool { return n.crashed.Load() }

func (n *Node) checkUp() error {
	if n.crashed.Load() {
		return fmt.Errorf("%v: %w", n.id, base.ErrNodeDown)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Statement execution (user path).

// access resolves the shard state for a user statement, enforcing shard
// phases. The returned state is used only for its store and load counter,
// both safe to touch after the lock is released.
func (n *Node) access(startTS base.Timestamp, shardID base.ShardID) (*shardState, error) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	st, ok := n.shards[shardID]
	if !ok || st.phase == PhaseNone {
		return nil, fmt.Errorf("%v on %v: %w", shardID, n.id, base.ErrShardMoved)
	}
	switch st.phase {
	case PhaseOwned, PhaseDestActive:
		return st, nil
	case PhaseSource:
		if st.divertTS != 0 && startTS >= st.divertTS {
			return nil, fmt.Errorf("%v diverted at %v, txn snapshot %v: %w",
				shardID, st.divertTS, startTS, base.ErrShardMoved)
		}
		return st, nil
	case PhaseDest:
		return nil, fmt.Errorf("%v still migrating to %v: %w", shardID, n.id, base.ErrShardMoved)
	}
	return nil, fmt.Errorf("%v in %v: %w", shardID, st.phase, base.ErrShardMoved)
}

// Get executes a point read for a (possibly remote) participant transaction.
func (n *Node) Get(t *txn.Txn, shardID base.ShardID, key base.Key) (base.Value, error) {
	if err := n.checkUp(); err != nil {
		return nil, err
	}
	n.throttleWait()
	st, err := n.access(t.StartTS, shardID)
	if err != nil {
		return nil, err
	}
	if err := n.runHooks(t, shardID, key, false); err != nil {
		return nil, err
	}
	n.Counters.ForegroundOps.Add(1)
	st.load.TouchRead(uint64(t.GlobalID))
	v, err := t.Read(st.store, key)
	if errors.Is(err, base.ErrKeyNotFound) {
		// The store is read without the shard lock, so a migration cleanup
		// may have dropped the shard (and emptied the store) mid-read. A
		// miss that races the drop must surface as ErrShardMoved — a bare
		// not-found here would be an SI anomaly the client cannot retry.
		if _, aerr := n.access(t.StartTS, shardID); aerr != nil {
			return nil, aerr
		}
	}
	return v, err
}

// Write executes a mutation for a participant transaction.
func (n *Node) Write(t *txn.Txn, shardID base.ShardID, kind mvcc.WriteKind, key base.Key, value base.Value) error {
	if err := n.checkUp(); err != nil {
		return err
	}
	n.throttleWait()
	st, err := n.access(t.StartTS, shardID)
	if err != nil {
		return err
	}
	if err := n.runHooks(t, shardID, key, true); err != nil {
		return err
	}
	table, _ := n.TableOf(shardID)
	n.Counters.ForegroundOps.Add(1)
	st.load.TouchWrite(uint64(t.GlobalID))
	if err := t.Write(st.store, table, shardID, kind, key, value); err != nil {
		return err
	}
	// Same post-statement residency check as Get: a write that raced the
	// shard drop landed in a retired store and would be silently lost if
	// the transaction were allowed to commit.
	if _, err := n.access(t.StartTS, shardID); err != nil {
		return err
	}
	return nil
}

// Scan executes a range scan over one shard.
func (n *Node) Scan(t *txn.Txn, shardID base.ShardID, lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	if err := n.checkUp(); err != nil {
		return err
	}
	n.throttleWait()
	st, err := n.access(t.StartTS, shardID)
	if err != nil {
		return err
	}
	if err := n.runHooks(t, shardID, "", false); err != nil {
		return err
	}
	n.Counters.ForegroundOps.Add(1)
	st.load.TouchRead(uint64(t.GlobalID))
	if err := t.Scan(st.store, lo, hi, fn); err != nil {
		return err
	}
	// A scan that raced the shard drop may have silently skipped rows, so
	// (unlike Get) even a "successful" result needs the residency check.
	if _, err := n.access(t.StartTS, shardID); err != nil {
		return err
	}
	return nil
}

// ApplyWrite executes a mutation on a shard regardless of its phase. The
// migration replay process uses it for shadow transactions on PhaseDest
// shards; hooks and phase checks are bypassed (replay is internal traffic).
func (n *Node) ApplyWrite(t *txn.Txn, shardID base.ShardID, kind mvcc.WriteKind, key base.Key, value base.Value) error {
	if err := n.checkUp(); err != nil {
		return err
	}
	store, table, ok := n.StoreAndTable(shardID)
	if !ok {
		return fmt.Errorf("apply to %v on %v: %w", shardID, n.id, base.ErrShardMoved)
	}
	return n.ApplyWriteTo(t, store, table, shardID, kind, key, value)
}

// ApplyWriteTo is ApplyWrite with the store and table already resolved by
// the caller (via StoreAndTable): the replayer resolves a shard once per
// task and applies that task's records without re-entering the shard map.
func (n *Node) ApplyWriteTo(t *txn.Txn, store *mvcc.Store, table base.TableID, shardID base.ShardID, kind mvcc.WriteKind, key base.Key, value base.Value) error {
	if err := n.checkUp(); err != nil {
		return err
	}
	n.Counters.ReplayOps.Add(1)
	return t.Write(store, table, shardID, kind, key, value)
}

// ---------------------------------------------------------------------------
// Shard map table.

// InitMapRow installs the initial placement row for a shard (cluster
// bootstrap, before any traffic; bypasses transactions like a catalog load).
func (n *Node) InitMapRow(d shard.Desc) {
	n.mapStore.InstallBootstrap(shard.MapKey(d.ID), shard.EncodeDesc(d))
}

// ReadMapRow reads the placement of a shard visible at the given snapshot,
// returning the descriptor and the commit timestamp of the row version.
func (n *Node) ReadMapRow(snap base.Timestamp, id base.ShardID) (shard.Desc, base.Timestamp, error) {
	if err := n.checkUp(); err != nil {
		return shard.Desc{}, 0, err
	}
	v, version, err := n.mapStore.ReadVersion(shard.MapKey(id), snap, base.InvalidXID)
	if err != nil {
		return shard.Desc{}, 0, fmt.Errorf("map row %v on %v: %w", id, n.id, err)
	}
	d, err := shard.DecodeDesc(v)
	if err != nil {
		return shard.Desc{}, 0, err
	}
	return d, version, nil
}

// WriteMapRow updates the placement row within a transaction (the T_m of
// ordered diversion writes one such row per node, then 2PC-commits).
func (n *Node) WriteMapRow(t *txn.Txn, d shard.Desc) error {
	if err := n.checkUp(); err != nil {
		return err
	}
	return t.Write(n.mapStore, MapTableID, MapShardID, mvcc.WriteUpdate, shard.MapKey(d.ID), shard.EncodeDesc(d))
}

// MapStore exposes the shard map store (tests).
func (n *Node) MapStore() *mvcc.Store { return n.mapStore }
