// Fenced timestamp leases: the abstraction boundary between lease consumers
// (LeasedOracle) and lease granters (the in-process *GTS, or the replicated
// primary/standby oracle of replicated.go). A grant carries the fencing epoch
// it was issued under; after a failover the new primary's epoch invalidates
// every outstanding lease, and a refresh carrying the stale epoch is rejected
// with a FencedError that names the current epoch so the client can re-lease
// transparently.
package clock

import (
	"errors"
	"fmt"
	"sync"

	"remus/internal/base"
)

// LeaseGrant is one granted lease: the caller owns the Count timestamps
// Start + j·Stride (j < Count) exclusively, under fencing epoch Epoch. They
// are the caller's row of one block of Count·Stride timestamps (blocks.go);
// at Stride 1 the lease is the contiguous range [Start, End()].
type LeaseGrant struct {
	Start  base.Timestamp
	Count  uint64
	Stride uint64
	Epoch  uint64
	// Shared reports that the block was opened by an earlier grant to
	// another slot, so it need not lie above every timestamp issued so far.
	// A fresh (unshared) block always does.
	Shared bool
}

// End returns the last timestamp of the grant (inclusive).
func (g LeaseGrant) End() base.Timestamp {
	return g.Start + base.Timestamp((g.Count-1)*g.Stride)
}

// Leaser grants fenced timestamp leases to one slot of a granter.
// Implementations: GTS.Slot handles (in-process, infallible, epoch pinned
// to 0) and *OracleClient (networked, replicated, fenced).
type Leaser interface {
	// GrantLease reserves n timestamps (one row of a block) under the
	// caller's fencing epoch. Epoch 0 means "any" — a client bootstrapping or
	// recovering that has no epoch yet; the grant's Epoch tells it the
	// current one. A stale non-zero epoch fails with a FencedError carrying
	// the current epoch; transient unavailability fails with ErrOracleDown
	// (possibly wrapped).
	GrantLease(epoch, n uint64) (LeaseGrant, error)
	// Current returns the latest issued timestamp without advancing the
	// sequence (monitoring parity with GTS.Current).
	Current() base.Timestamp
}

// ErrOracleDown reports that no oracle replica answered a lease request
// within the client's patience. Callers classify with errors.Is.
var ErrOracleDown = errors.New("timestamp oracle unavailable")

// ErrLeaseFenced is the sentinel matched by errors.Is against a FencedError.
var ErrLeaseFenced = errors.New("lease fenced by newer epoch")

// FencedError rejects a lease request whose epoch predates the oracle's
// current fencing epoch (the request raced a failover). Epoch is the current
// epoch — the client adopts it and retries, acquiring a fresh lease that
// starts above everything the fenced lease could have granted.
type FencedError struct {
	Epoch uint64
}

// Error implements error.
func (e *FencedError) Error() string {
	return fmt.Sprintf("lease fenced: current oracle epoch is %d", e.Epoch)
}

// Is matches the ErrLeaseFenced sentinel.
func (e *FencedError) Is(target error) bool { return target == ErrLeaseFenced }

// Slot returns the Leaser through which one node draws slot i of every
// block of the in-process sequencer (i < stride; larger values wrap, which
// stays unique because the granter hands each slot of a block out once).
func (g *GTS) Slot(i int) Leaser { return gtsSlot{g: g, slot: uint64(i)} }

// gtsSlot is one node's handle on a shared *GTS.
type gtsSlot struct {
	g    *GTS
	slot uint64
}

// GrantLease implements Leaser: infallible, always epoch 0 (a single shared
// *GTS is never fenced). At stride 1 every grant is a fresh block of n
// timestamps, so lease 1 keeps the per-request protocol byte-identical.
func (s gtsSlot) GrantLease(_, n uint64) (LeaseGrant, error) { return s.g.grant(s.slot, n), nil }

// Current implements Leaser.
func (s gtsSlot) Current() base.Timestamp { return s.g.Current() }

var _ Leaser = gtsSlot{}

// HWMStore persists the oracle's (fencing epoch, timestamp high-water mark)
// pair. The replicated oracle writes it before any grant above the stored
// mark becomes visible ("persist before grant"), so a restart that loads the
// pair resumes strictly above every timestamp ever granted. Save(epoch, hwm)
// must be durable when it returns; Load on a fresh store returns (0, 0, nil).
//
// The interface lives here (not in internal/storage) so clock stays below
// storage in the import graph; storage.OracleStore is the durable
// implementation, MemHWMStore the in-memory test double.
type HWMStore interface {
	Load() (epoch, hwm uint64, err error)
	Save(epoch, hwm uint64) error
}

// MemHWMStore is an in-memory HWMStore: durable across oracle crash/restart
// within a process (the chaos tests model replica crashes as state loss in
// the Replica, not the store), lost with the process.
type MemHWMStore struct {
	mu    sync.Mutex
	epoch uint64
	hwm   uint64
	saves uint64
}

// NewMemHWMStore returns an empty in-memory store.
func NewMemHWMStore() *MemHWMStore { return &MemHWMStore{} }

// Load implements HWMStore.
func (s *MemHWMStore) Load() (uint64, uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch, s.hwm, nil
}

// Save implements HWMStore.
func (s *MemHWMStore) Save(epoch, hwm uint64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch, s.hwm = epoch, hwm
	s.saves++
	return nil
}

// Saves reports completed Save calls (tests assert persist batching).
func (s *MemHWMStore) Saves() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saves
}
