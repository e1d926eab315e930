// Leased timestamp allocation: one GTS round trip reserves the node's row of
// a timestamp block (blocks.go), which the node then hands out locally until
// the row is exhausted. This removes the central sequencer from the
// per-transaction critical path — the §2.2 bottleneck the ROADMAP names as
// the first wall on the way to millions of clients — at the cost of relaxing
// real-time order between nodes to what snapshot isolation actually needs:
// per-node monotonicity, global uniqueness (leases are disjoint), and
// causality through Observe. Rows of one block interleave across nodes, so a
// peer's timestamp rarely lies past the local lease: Observe skips the
// cursor to it within the node's residue class and the lease survives.
//
// Equivalence at lease size 1: every allocation refreshes, paying exactly
// one delay hook and drawing exactly one GTS tick, so the timestamp stream
// is byte-for-byte the per-request GTSClient protocol (pinned by
// TestLeaseOneByteIdenticalToGTS).
package clock

import (
	"errors"
	"sync"
	"sync/atomic"

	"remus/internal/base"
	"remus/internal/fault"
)

// LeasedOracle is a lease-consuming client over any Leaser: a slot of the
// in-process *GTS, or an OracleClient on a replicated group. It implements Oracle and
// is safe for concurrent use by one node's sessions.
type LeasedOracle struct {
	ls     Leaser
	delay  func()
	lease  uint64
	faults *fault.Registry

	mu     sync.Mutex
	epoch  uint64 // fencing epoch of the current lease (0 until the first grant)
	stride uint64 // distance between the lease's timestamps (1 until the first grant)
	next   uint64 // next timestamp to hand out; in the lease's residue class once granted
	end    uint64 // last timestamp of the current lease (inclusive); next > end when exhausted

	requests  atomic.Uint64 // granter round trips (lease refreshes that reached the sequencer)
	refreshes atomic.Uint64 // successful lease refreshes
	issued    atomic.Uint64 // timestamps handed out locally
	skipped   atomic.Uint64 // own leased timestamps discarded by Observe/CommitTS skips
}

var _ Oracle = (*LeasedOracle)(nil)

// NewLeasedOracle wraps slot 0 of the shared sequencer, leasing `lease`
// timestamps per round trip (values < 1 behave as 1, the per-request
// protocol). delay, if non-nil, models the round trip and is invoked once
// per refresh. faults may be nil; when set, fault.SiteLeaseRefresh is
// evaluated before each refresh RPC.
func NewLeasedOracle(gts *GTS, delay func(), lease int, faults *fault.Registry) *LeasedOracle {
	return NewLeasedOracleFrom(gts.Slot(0), delay, lease, faults)
}

// NewLeasedOracleFrom is NewLeasedOracle over any Leaser — the replicated
// oracle's per-node OracleClient plugs in here, and the transaction layer
// above rides through failovers without code changes.
func NewLeasedOracleFrom(ls Leaser, delay func(), lease int, faults *fault.Registry) *LeasedOracle {
	l := uint64(1)
	if lease > 1 {
		l = uint64(lease)
	}
	return &LeasedOracle{ls: ls, delay: delay, lease: l, faults: faults, stride: 1, next: 1, end: 0}
}

// refreshLocked acquires a fresh lease. Caller holds o.mu. A failing
// fault-site evaluation models a lost lease RPC: the refresh retries (each
// attempt re-pays the delay hook), exactly as a real client would retry the
// sequencer; the armed actions of the chaos harness are Once/probabilistic,
// so retries terminate. A FencedError is the transparent re-lease path: the
// oracle failed over and invalidated this lease, so adopt the new fencing
// epoch and retry — the fresh grant starts above everything the fenced lease
// could ever have handed out, so the timestamp stream stays monotonic.
//
// The cursor survives the refresh: a shared block may reach below a
// timestamp this node already handed out or observed, so the new lease
// starts at the cursor rounded into its class. If a shared block ends below
// the cursor, it is useless and the refresh asks again; the granter has now
// marked this slot taken, so it opens a fresh block, and a fresh block lies
// above every timestamp issued.
func (o *LeasedOracle) refreshLocked() {
	for {
		err := o.faults.Eval(fault.SiteLeaseRefresh)
		if o.delay != nil {
			o.delay()
		}
		if err != nil {
			continue
		}
		g, err := o.ls.GrantLease(o.epoch, o.lease)
		if err != nil {
			var fe *FencedError
			if errors.As(err, &fe) {
				o.epoch = fe.Epoch
			}
			continue
		}
		o.epoch = g.Epoch
		o.requests.Add(1)
		o.refreshes.Add(1)
		o.stride, o.end = g.Stride, uint64(g.End())
		next := max(o.classCeil(o.next), uint64(g.Start))
		if next > o.end {
			if g.Shared {
				continue
			}
			// The cursor passed a fresh block, so it was pushed past
			// everything the granter issued (an Observe of a timestamp from
			// elsewhere): restart at the block, as GTSClient would.
			next = uint64(g.Start)
		}
		o.next = next
		return
	}
}

// classCeil returns the smallest timestamp >= ts in the current lease's
// residue class. Caller holds o.mu.
func (o *LeasedOracle) classCeil(ts uint64) uint64 {
	return ts + (o.end%o.stride+o.stride-ts%o.stride)%o.stride
}

// allocLocked hands out the next timestamp, refreshing when the window is
// exhausted. Caller holds o.mu.
func (o *LeasedOracle) allocLocked() base.Timestamp {
	if o.next > o.end {
		o.refreshLocked()
	}
	ts := base.Timestamp(o.next)
	o.next += o.stride
	o.issued.Add(1)
	return ts
}

// StartTS implements Oracle.
func (o *LeasedOracle) StartTS() base.Timestamp {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.allocLocked()
}

// PrepareTS implements Oracle.
func (o *LeasedOracle) PrepareTS() base.Timestamp {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.allocLocked()
}

// CommitTS implements Oracle. The folded maximum prepare timestamp may come
// from another node's row of the block or from a later block; the window
// cursor skips past it so the commit timestamp is strictly larger (a fresh
// block, when needed, starts above the sequencer's counter and therefore
// above every timestamp any lease has ever handed out).
func (o *LeasedOracle) CommitTS(maxPrepare base.Timestamp) base.Timestamp {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.skipPastLocked(maxPrepare)
	ts := o.allocLocked()
	if ts <= maxPrepare {
		// Cannot happen when maxPrepare was drawn from this sequencer (a
		// fresh block starts above its counter), but mirror GTSClient's
		// defensive clamp for artificial inputs, staying in this node's
		// class, and skip the window so later allocations stay above the
		// returned timestamp.
		ts = base.Timestamp(o.classCeil(uint64(maxPrepare) + 1))
		o.skipPastLocked(ts)
	}
	return ts
}

// Observe implements Oracle: a witnessed remote timestamp must precede every
// timestamp handed out afterwards, so a snapshot taken after observing a
// commit sees it (read-your-writes across the session's Observe calls).
func (o *LeasedOracle) Observe(ts base.Timestamp) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.skipPastLocked(ts)
}

// skipPastLocked advances the window cursor past ts, to the next timestamp
// of the lease's class. Unused own timestamps below ts are discarded —
// never reused, preserving monotonicity. If ts reaches past the window's end
// the lease is simply exhausted; the next allocation refreshes, keeping the
// cursor. Caller holds o.mu.
func (o *LeasedOracle) skipPastLocked(ts base.Timestamp) {
	if uint64(ts) < o.next {
		return
	}
	next := o.classCeil(uint64(ts) + 1)
	if o.next <= o.end {
		o.skipped.Add((min(next, o.end+o.stride) - o.next) / o.stride)
	}
	o.next = next
}

// Now implements Oracle: the sequencer's latest issued timestamp, read
// without a round trip (monitoring parity with GTSClient.Now).
func (o *LeasedOracle) Now() base.Timestamp { return o.ls.Current() }

// Name implements Oracle.
func (o *LeasedOracle) Name() string { return "gts-lease" }

// GTSRequests reports sequencer round trips paid so far.
func (o *LeasedOracle) GTSRequests() uint64 { return o.requests.Load() }

// Refreshes reports completed lease refreshes.
func (o *LeasedOracle) Refreshes() uint64 { return o.refreshes.Load() }

// Issued reports timestamps handed out locally.
func (o *LeasedOracle) Issued() uint64 { return o.issued.Load() }

// Skipped reports the node's own leased timestamps discarded by
// Observe/CommitTS skips.
func (o *LeasedOracle) Skipped() uint64 { return o.skipped.Load() }
