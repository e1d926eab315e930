// Package mvcc implements the multi-version tuple store of one shard: version
// chains over an ordered primary index, snapshot-isolation visibility checks
// resolved through the CLOG (including the 2PC prepare-wait of §2.2), row
// locks and first-updater-wins write-conflict detection.
package mvcc

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/btree"
	"remus/internal/clog"
)

// FrozenXID is the reserved transaction id that owns bootstrap versions:
// migrated snapshot tuples installed on a destination node (§3.2) and
// initially loaded data. Nodes register it in their CLOG as committed at
// base.TsBootstrap.
const FrozenXID base.XID = 1

// Version is one entry in a tuple's version chain. Ref is the creator's CLOG
// handle, cached at version-creation time, so a visibility check resolves the
// creator's (status, commitTS) with a single atomic load — no table probe, no
// lock. Ref may be nil (recovered chains whose creators were truncated); the
// resolve path then falls back to the CLOG table.
type Version struct {
	XID     base.XID
	Value   base.Value
	Deleted bool // tombstone
	Ref     *clog.Ref
}

// versionChain holds a tuple's versions, newest first, as a copy-on-write
// immutable array: writers build a fresh slice under mu and publish it with
// one atomic store; readers load the current array with one atomic load and
// never take the mutex — a steady-state Get allocates nothing.
type versionChain struct {
	mu  sync.Mutex // serializes writers; readers never take it
	arr atomic.Pointer[[]*Version]
}

// load returns the current immutable version array. The returned slice must
// not be mutated.
func (c *versionChain) load() []*Version {
	if p := c.arr.Load(); p != nil {
		return *p
	}
	return nil
}

// WriteKind enumerates tuple mutations.
type WriteKind uint8

const (
	// WriteInsert creates a tuple; fails with ErrDuplicateKey if a live
	// version exists.
	WriteInsert WriteKind = iota + 1
	// WriteUpdate overwrites an existing tuple.
	WriteUpdate
	// WriteDelete tombstones an existing tuple.
	WriteDelete
	// WriteLock takes the row lock and validates the tuple without
	// changing it (SELECT ... FOR UPDATE). It participates in WW-conflict
	// detection and MOCC validation but appends no version.
	WriteLock
)

func (k WriteKind) String() string {
	switch k {
	case WriteInsert:
		return "insert"
	case WriteUpdate:
		return "update"
	case WriteDelete:
		return "delete"
	case WriteLock:
		return "lock"
	default:
		return fmt.Sprintf("writekind(%d)", uint8(k))
	}
}

// Config tunes a store.
type Config struct {
	// LockTimeout bounds a row-lock wait on a holder that never finishes
	// (a lost holder); zero means wait forever. Wait-die ordering, not the
	// timeout, resolves deadlocks.
	LockTimeout time.Duration
	// PrepareWaitTimeout bounds prepare-wait during visibility checks.
	PrepareWaitTimeout time.Duration
}

// DefaultConfig returns production-ish defaults.
func DefaultConfig() Config {
	return Config{LockTimeout: 10 * time.Second, PrepareWaitTimeout: 10 * time.Second}
}

// padCounter is a cache-line padded counter so the resolve stripes of
// concurrent readers never false-share.
type padCounter struct {
	n atomic.Uint64
	_ [56]byte
}

const resolveStripes = 8

// Store is the MVCC tuple store of one shard.
type Store struct {
	clog *clog.CLOG
	cfg  Config

	mu    sync.RWMutex // guards index structure
	index *btree.Tree

	locks *LockTable

	// frozenRef caches the FrozenXID CLOG handle for bootstrap installs.
	frozenRef atomic.Pointer[clog.Ref]

	versionCount atomic.Int64

	// Hot-path stats. Resolve counters are striped by xid so concurrent
	// readers on different cores don't fight over one word.
	resolves  [resolveStripes]padCounter
	lockFree  [resolveStripes]padCounter
	arrSwaps  atomic.Uint64
	scratches sync.Pool // scan entry slices, recycled across scans
}

// NewStore returns an empty store resolving visibility through cl.
func NewStore(cl *clog.CLOG, cfg Config) *Store {
	s := &Store{clog: cl, cfg: cfg, index: btree.New(), locks: NewLockTable()}
	s.scratches.New = func() any {
		sl := make([]scanEntry, 0, 64)
		return &sl
	}
	return s
}

// CLOG exposes the commit log the store resolves against.
func (s *Store) CLOG() *clog.CLOG { return s.clog }

// frozen returns the cached FrozenXID handle, fetching it lazily (the CLOG
// registers FrozenXID during node bootstrap, possibly after NewStore).
func (s *Store) frozen() *clog.Ref {
	if r := s.frozenRef.Load(); r != nil {
		return r
	}
	r := s.clog.Handle(FrozenXID)
	if r != nil {
		s.frozenRef.Store(r)
	}
	return r
}

func (s *Store) chain(key base.Key, create bool) *versionChain {
	s.mu.RLock()
	v, ok := s.index.Get(key)
	s.mu.RUnlock()
	if ok {
		return v.(*versionChain)
	}
	if !create {
		return nil
	}
	// Single descent for the upgrade: GetOrSet finds a chain raced in by
	// another writer or inserts ours, without probing the tree twice.
	s.mu.Lock()
	defer s.mu.Unlock()
	c, _ := s.index.GetOrSet(key, &versionChain{})
	return c.(*versionChain)
}

// entryOf resolves a version creator's CLOG state. With a cached Ref this is
// one atomic load — the lock-free fast path the read hot path lives on; the
// table fallback covers Ref-less versions only.
func (s *Store) entryOf(v *Version) clog.Entry {
	i := uint64(v.XID) & (resolveStripes - 1)
	s.resolves[i].n.Add(1)
	if v.Ref != nil {
		s.lockFree[i].n.Add(1)
		return v.Ref.Entry()
	}
	return s.clog.Lookup(v.XID)
}

// waitDone prepare-waits on a version's creator, preferring the cached Ref.
func (s *Store) waitDone(v *Version) (clog.Entry, error) {
	if v.Ref != nil {
		e, err := v.Ref.WaitDone(s.cfg.PrepareWaitTimeout)
		if err != nil {
			return e, fmt.Errorf("clog: wait for %v: %w", v.XID, base.ErrTimeout)
		}
		return e, nil
	}
	return s.clog.WaitDone(v.XID, s.cfg.PrepareWaitTimeout)
}

// resolve determines the visibility of one version for a snapshot, waiting
// out prepared writers (prepare-wait, §2.2). It returns the creator's final
// entry alongside:
//
//	visible  — the version is committed with commitTS <= snap
//	skip     — aborted, in-progress, or committed (or decided) after snap
//	err      — prepare-wait timed out
func (s *Store) resolve(v *Version, snap base.Timestamp) (e clog.Entry, visible bool, err error) {
	e = s.entryOf(v)
	// A decided creator will commit at its CommitTS whatever happens, so
	// above the snapshot it is invisible without waiting for publication.
	if e.Status == base.StatusPrepared && !(e.Decided() && e.CommitTS > snap) {
		e, err = s.waitDone(v)
		if err != nil {
			return e, false, err
		}
	}
	return e, e.Status == base.StatusCommitted && e.CommitTS <= snap, nil
}

// Read returns the tuple value visible to the snapshot. A transaction sees
// its own uncommitted writes (selfXID). Returns base.ErrKeyNotFound when no
// visible live version exists.
func (s *Store) Read(key base.Key, snap base.Timestamp, selfXID base.XID) (base.Value, error) {
	v, _, err := s.ReadVersion(key, snap, selfXID)
	return v, err
}

// ReadVersion is Read returning also the commit timestamp of the visible
// version (zero for the reader's own uncommitted writes). The shard map
// cache uses the commit timestamp to apply updates monotonically (§3.5.1).
func (s *Store) ReadVersion(key base.Key, snap base.Timestamp, selfXID base.XID) (base.Value, base.Timestamp, error) {
	c := s.chain(key, false)
	if c == nil {
		return nil, 0, base.ErrKeyNotFound
	}
	for _, v := range c.load() {
		if v.XID == selfXID && selfXID != base.InvalidXID {
			if v.Deleted {
				return nil, 0, base.ErrKeyNotFound
			}
			return v.Value, 0, nil
		}
		e, vis, err := s.resolve(v, snap)
		if err != nil {
			return nil, 0, err
		}
		if vis {
			if v.Deleted {
				return nil, 0, base.ErrKeyNotFound
			}
			return v.Value, e.CommitTS, nil
		}
	}
	return nil, 0, base.ErrKeyNotFound
}

// WriteReq describes one tuple mutation. Ref, when set, is the writing
// transaction's CLOG handle and is cached on the created version so later
// visibility checks resolve it lock-free; a nil Ref is looked up once here.
// StartTS, Txn and XID rank the row-lock request (Order).
type WriteReq struct {
	Kind    WriteKind
	Key     base.Key
	Value   base.Value
	XID     base.XID
	Txn     base.TxnID
	StartTS base.Timestamp
	Ref     *clog.Ref
}

// Write performs a mutation with first-updater-wins conflict detection:
//
//  1. take the row lock: wait for a concurrent writer that is older, fail at
//     once on one that is younger (LockTable);
//  2. find the latest non-aborted version; if it committed after the
//     writer's snapshot, fail with ErrWWConflict (§3.5.2 uses exactly this
//     check to validate propagated changes on the destination);
//  3. append the new version by publishing a fresh immutable array.
//
// The row lock stays held until ReleaseLocks(xid).
func (s *Store) Write(req WriteReq) (err error) {
	if err := s.locks.Acquire(req.Key, req.XID, Order{StartTS: req.StartTS, Txn: req.Txn}, s.cfg.LockTimeout); err != nil {
		if !errors.Is(err, base.ErrWWConflict) {
			// A lock timeout is a serialization failure too; the dual %w
			// keeps ErrTimeout inspectable.
			err = fmt.Errorf("%w: %w", base.ErrWWConflict, err)
		}
		return err
	}
	// A failed statement must not retain the lock level it just took: the
	// transaction will abort, but other writers would otherwise stall on a
	// lock that no recorded write ever releases. Reentrant acquisitions
	// from earlier successful writes keep their levels.
	defer func() {
		if err != nil {
			s.locks.Release(req.Key, req.XID)
		}
	}()
	c := s.chain(req.Key, true)
	c.mu.Lock()
	defer c.mu.Unlock()
	versions := c.load()

	// Latest non-aborted version decides conflicts and constraints.
	var top *Version
	var topEntry clog.Entry
	for _, v := range versions {
		e := s.entryOf(v)
		if e.Status == base.StatusAborted {
			continue
		}
		top, topEntry = v, e
		break
	}

	if top != nil && top.XID != req.XID {
		switch topEntry.Status {
		case base.StatusCommitted:
			if topEntry.CommitTS > req.StartTS {
				return fmt.Errorf("%v at %q: %w", req.Kind, string(req.Key), base.ErrWWConflict)
			}
		default:
			// A live foreign version despite holding the row lock can only
			// belong to a writer that finished without releasing (crash
			// path); treat as a conflict rather than corrupt the chain.
			return fmt.Errorf("%v at %q blocked by %v (%v): %w",
				req.Kind, string(req.Key), top.XID, topEntry.Status, base.ErrWWConflict)
		}
	}

	liveTuple := top != nil && !top.Deleted
	switch req.Kind {
	case WriteInsert:
		if liveTuple {
			return fmt.Errorf("insert %q: %w", string(req.Key), base.ErrDuplicateKey)
		}
	case WriteUpdate, WriteDelete, WriteLock:
		if !liveTuple {
			return fmt.Errorf("%v %q: %w", req.Kind, string(req.Key), base.ErrKeyNotFound)
		}
	default:
		return fmt.Errorf("mvcc: unknown write kind %v", req.Kind)
	}

	if req.Kind == WriteLock {
		return nil
	}
	ref := req.Ref
	if ref == nil {
		ref = s.clog.Handle(req.XID)
	}
	nv := &Version{XID: req.XID, Value: req.Value.Clone(), Deleted: req.Kind == WriteDelete, Ref: ref}
	next := make([]*Version, 0, len(versions)+1)
	next = append(next, nv)
	next = append(next, versions...)
	c.arr.Store(&next)
	s.arrSwaps.Add(1)
	s.versionCount.Add(1)
	return nil
}

// ReleaseLocks releases every row lock held by xid (called at txn end).
func (s *Store) ReleaseLocks(xid base.XID) { s.locks.ReleaseAll(xid) }

// appendBootstrap publishes a bootstrap version at the tail (oldest slot) of
// a chain. Caller sequence matters only for the installer; see
// InstallBootstrap.
func (s *Store) appendBootstrap(c *versionChain, value base.Value) {
	c.mu.Lock()
	versions := c.load()
	next := make([]*Version, 0, len(versions)+1)
	next = append(next, versions...)
	next = append(next, &Version{XID: FrozenXID, Value: value.Clone(), Ref: s.frozen()})
	c.arr.Store(&next)
	c.mu.Unlock()
	s.arrSwaps.Add(1)
}

// InstallBootstrap installs a migrated snapshot tuple owned by FrozenXID
// (committed at base.TsBootstrap), bypassing conflict checks. The migration
// snapshot installer is the only writer of the destination shard at that
// point, so this is safe (§3.2).
func (s *Store) InstallBootstrap(key base.Key, value base.Value) {
	s.appendBootstrap(s.chain(key, true), value)
	s.versionCount.Add(1)
}

// InstallBootstrapBatch installs many bootstrap tuples, paying the version
// counter once. Used by checkpoint-file installs (migration ship path and
// restart-from-disk recovery), which move thousands of tuples at a time.
func (s *Store) InstallBootstrapBatch(keys []base.Key, values []base.Value) {
	for i := range keys {
		s.appendBootstrap(s.chain(keys[i], true), values[i])
	}
	s.versionCount.Add(int64(len(keys)))
}

// SnapshotScan streams every tuple version visible at snap, in key order,
// into fn. It is the migration snapshot reader of §3.2: the scan runs
// against the snapshot while concurrent transactions keep writing. fn
// returning false stops the scan.
func (s *Store) SnapshotScan(snap base.Timestamp, fn func(key base.Key, value base.Value) bool) error {
	return s.scanRange("", "", true, snap, base.InvalidXID, fn)
}

// ScanRange streams tuples with keys in [lo, hi) visible at snap into fn.
// An empty hi means "to the end of the key space".
func (s *Store) ScanRange(lo, hi base.Key, snap base.Timestamp, selfXID base.XID, fn func(key base.Key, value base.Value) bool) error {
	return s.scanRange(lo, hi, false, snap, selfXID, fn)
}

type scanEntry struct {
	key base.Key
	c   *versionChain
}

func (s *Store) scanRange(lo, hi base.Key, all bool, snap base.Timestamp, selfXID base.XID, fn func(key base.Key, value base.Value) bool) error {
	// Collect the chains under the index lock, resolve visibility outside it
	// so prepare-waits don't block the index. The entry slice is pooled so a
	// steady-state short scan reuses a previous scan's backing array.
	ep := s.scratches.Get().(*[]scanEntry)
	entries := (*ep)[:0]
	defer func() {
		clear(entries)
		*ep = entries[:0]
		s.scratches.Put(ep)
	}()
	s.mu.RLock()
	collect := func(k base.Key, v any) bool {
		entries = append(entries, scanEntry{k, v.(*versionChain)})
		return true
	}
	switch {
	case all:
		s.index.Ascend(collect)
	case hi == "":
		s.index.AscendFrom(lo, collect)
	default:
		s.index.AscendRange(lo, hi, collect)
	}
	s.mu.RUnlock()

	for _, e := range entries {
		var val base.Value
		found := false
		for _, v := range e.c.load() {
			if v.XID == selfXID && selfXID != base.InvalidXID {
				if !v.Deleted {
					val, found = v.Value, true
				}
				break
			}
			_, vis, err := s.resolve(v, snap)
			if err != nil {
				return err
			}
			if vis {
				if !v.Deleted {
					val, found = v.Value, true
				}
				break
			}
		}
		if found && !fn(e.key, val) {
			return nil
		}
	}
	return nil
}

// Vacuum prunes version chains: every version strictly older than the newest
// version visible at oldestActive is unreachable and dropped, as are aborted
// versions. Returns the number of versions reclaimed. Long-running snapshots
// (Fig 10) hold oldestActive back and make chains grow.
//
// Pruning publishes a filtered copy of the array, so concurrent readers keep
// iterating whichever array they loaded — no torn chains.
func (s *Store) Vacuum(oldestActive base.Timestamp) int {
	var chains []*versionChain
	s.mu.RLock()
	s.index.Ascend(func(_ base.Key, v any) bool {
		chains = append(chains, v.(*versionChain))
		return true
	})
	s.mu.RUnlock()

	reclaimed := 0
	for _, c := range chains {
		c.mu.Lock()
		versions := c.load()
		kept := make([]*Version, 0, len(versions))
		dropped := 0
		seenVisible := false
		for _, v := range versions {
			e := s.entryOf(v)
			switch {
			case e.Status == base.StatusAborted:
				dropped++
			case seenVisible && e.Status == base.StatusCommitted:
				dropped++ // shadowed by a newer version already visible to all
			default:
				kept = append(kept, v)
				if e.Status == base.StatusCommitted && e.CommitTS <= oldestActive {
					seenVisible = true
				}
			}
		}
		if dropped > 0 {
			c.arr.Store(&kept)
			s.arrSwaps.Add(1)
			reclaimed += dropped
		}
		c.mu.Unlock()
	}
	s.versionCount.Add(-int64(reclaimed))
	return reclaimed
}

// DropAll removes every tuple (used when cleaning up a source shard after
// migration completes, or a partially migrated destination shard on
// rollback).
func (s *Store) DropAll() {
	s.mu.Lock()
	s.index = btree.New()
	s.mu.Unlock()
	s.versionCount.Store(0)
}

// Keys reports the number of distinct keys (including tombstoned tuples).
func (s *Store) Keys() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.index.Len()
}

// Versions reports the total number of live version objects.
func (s *Store) Versions() int {
	return int(s.versionCount.Load())
}

// ChainLength reports the version-chain length for key (Fig 10 diagnostics).
func (s *Store) ChainLength(key base.Key) int {
	c := s.chain(key, false)
	if c == nil {
		return 0
	}
	return len(c.load())
}

// LockOwner exposes the current row-lock owner (tests).
func (s *Store) LockOwner(key base.Key) base.XID { return s.locks.Owner(key) }

// Resolves reports the total number of CLOG visibility resolutions performed
// by this store's read and write paths.
func (s *Store) Resolves() uint64 {
	var n uint64
	for i := range s.resolves {
		n += s.resolves[i].n.Load()
	}
	return n
}

// LockFreeResolves reports how many resolutions were answered by a cached
// Ref's packed word (one atomic load, no table probe).
func (s *Store) LockFreeResolves() uint64 {
	var n uint64
	for i := range s.lockFree {
		n += s.lockFree[i].n.Load()
	}
	return n
}

// LockStripeCollisions reports contended fast-path acquisitions of lock-table
// stripe mutexes.
func (s *Store) LockStripeCollisions() uint64 { return s.locks.StripeCollisions() }

// VersionArraySwaps reports copy-on-write version-array publications (one per
// installed version, plus one per vacuumed chain).
func (s *Store) VersionArraySwaps() uint64 { return s.arrSwaps.Load() }
