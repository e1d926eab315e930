// Package clock implements the two timestamp-ordering schemes of PolarDB-PG
// described in §2.2 of the Remus paper:
//
//   - GTS: a centralized sequencer on the control-plane node that hands out
//     globally monotonically increasing timestamps (linearizable across
//     sessions);
//   - DTS: a decentralized scheme where every node runs a Hybrid Logical
//     Clock (a logical counter piggybacked on loosely synchronized physical
//     time). DTS tracks causal order — enough for snapshot isolation — while
//     allowing stale snapshot reads within clock skew across nodes.
//
// Both are exposed through the Oracle interface so the transaction manager is
// agnostic to the scheme.
package clock

import (
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
)

// Oracle hands out timestamps to one node's transaction manager.
//
// The commit protocol is: every participant contributes PrepareTS() at the
// end of its prepare phase; the coordinator folds them with CommitTS(max),
// which returns a timestamp no smaller than any contribution. Observe feeds
// remote timestamps into the clock to maintain causality (a no-op for GTS).
type Oracle interface {
	// StartTS returns a snapshot timestamp for a new transaction.
	StartTS() base.Timestamp
	// PrepareTS returns this participant's clock reading at prepare time.
	PrepareTS() base.Timestamp
	// CommitTS folds the maximum prepare timestamp of all participants into
	// a commit timestamp strictly larger than it.
	CommitTS(maxPrepare base.Timestamp) base.Timestamp
	// Observe witnesses a timestamp carried by an incoming message,
	// advancing the local clock past it (causality).
	Observe(ts base.Timestamp)
	// Now returns the current clock reading without allocating a timestamp
	// to any transaction (used for monitoring and lag estimation).
	Now() base.Timestamp
	// Name identifies the scheme ("gts" or "dts") for logs and benchmarks.
	Name() string
}

// ---------------------------------------------------------------------------
// GTS: centralized sequencer.

// GTS is the control-plane sequencer. One GTS instance is shared by every
// node in the cluster; nodes reach it through a per-node NewGTSClient whose
// delay hook models the network round trip to the control plane, or lease
// blocks of timestamps from it through Slot (blocks.go).
type GTS struct {
	counter atomic.Uint64

	mu     sync.Mutex // serializes lease grants
	blocks blockLedger
}

// NewGTS returns a sequencer starting above the bootstrap timestamp, with
// stride 1: every lease is a contiguous range.
func NewGTS() *GTS { return NewStridedGTS(1) }

// NewStridedGTS returns a sequencer whose leases interleave up to stride
// slots in one block (1 <= stride <= 64).
func NewStridedGTS(stride int) *GTS {
	g := &GTS{blocks: newBlockLedger(stride)}
	g.counter.Store(uint64(base.TsBootstrap) + 1)
	return g
}

// Next returns the next globally unique, monotonically increasing timestamp.
func (g *GTS) Next() base.Timestamp {
	return base.Timestamp(g.counter.Add(1))
}

// grant hands slot a lease of n timestamps: its row of the newest block, or
// of a fresh block above the counter. The counter covers every block, so
// Next and fresh blocks stay above every lease.
func (g *GTS) grant(slot, n uint64) LeaseGrant {
	if n == 0 {
		n = 1
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if l, ok := g.blocks.share(slot, n); ok {
		return l
	}
	for {
		cur := g.counter.Load()
		start, last := g.blocks.span(cur+1, n)
		if g.counter.CompareAndSwap(cur, last) {
			return g.blocks.open(start, slot, n)
		}
	}
}

// Current returns the latest issued timestamp without advancing the sequence.
func (g *GTS) Current() base.Timestamp {
	return base.Timestamp(g.counter.Load())
}

// AdvanceTo raises the sequence so no future timestamp is issued at or below
// ts. Restart-from-disk recovery uses it: the sequencer state is not
// persisted, so it must be pushed past every timestamp recovered from disk.
// The newest block is retired, since its free rows may lie below ts.
func (g *GTS) AdvanceTo(ts base.Timestamp) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.blocks.retire()
	for {
		cur := g.counter.Load()
		if cur >= uint64(ts) || g.counter.CompareAndSwap(cur, uint64(ts)) {
			return
		}
	}
}

// GTSClient is a node's handle on the central GTS. Every timestamp request
// pays the round-trip hook, modelling the §2.2 observation that GTS is a
// centralized bottleneck.
type GTSClient struct {
	gts      *GTS
	delay    func()
	requests atomic.Uint64
}

var _ Oracle = (*GTSClient)(nil)

// NewGTSClient wraps the shared sequencer for one node. delay, if non-nil,
// is invoked on every request to model the network round trip.
func NewGTSClient(gts *GTS, delay func()) *GTSClient {
	return &GTSClient{gts: gts, delay: delay}
}

func (c *GTSClient) rpc() base.Timestamp {
	c.requests.Add(1)
	if c.delay != nil {
		c.delay()
	}
	return c.gts.Next()
}

// GTSRequests reports the sequencer round trips this client has paid (the
// benchmark's traced run divides it by committed transactions).
func (c *GTSClient) GTSRequests() uint64 { return c.requests.Load() }

// StartTS implements Oracle.
func (c *GTSClient) StartTS() base.Timestamp { return c.rpc() }

// PrepareTS implements Oracle.
func (c *GTSClient) PrepareTS() base.Timestamp { return c.rpc() }

// CommitTS implements Oracle. The fresh GTS tick is by construction larger
// than every participant's prepare timestamp.
func (c *GTSClient) CommitTS(maxPrepare base.Timestamp) base.Timestamp {
	ts := c.rpc()
	if ts <= maxPrepare {
		// Cannot happen with a single sequencer, but be defensive.
		ts = maxPrepare + 1
	}
	return ts
}

// Observe implements Oracle; the central sequencer needs no causality help.
func (c *GTSClient) Observe(base.Timestamp) {}

// Now implements Oracle.
func (c *GTSClient) Now() base.Timestamp { return c.gts.Current() }

// Name implements Oracle.
func (c *GTSClient) Name() string { return "gts" }

// ---------------------------------------------------------------------------
// DTS: decentralized hybrid logical clocks.

// TimeSource returns the current physical time in microseconds. Production
// uses WallClock; tests inject manual sources.
type TimeSource func() uint64

// WallClock is the default physical time source (µs since process start,
// offset so timestamps stay well above TsBootstrap).
func WallClock() TimeSource {
	start := time.Now()
	return func() uint64 {
		return uint64(time.Since(start).Microseconds()) + 16
	}
}

// HLC is one node's Hybrid Logical Clock: the DTS Oracle. The timestamp is
// (physical µs << base.LogicalBits) | logical. Skew models imperfect NTP/PTP
// synchronization between nodes (§2.2: DTS allows stale reads within skew).
type HLC struct {
	mu       sync.Mutex
	source   TimeSource
	skew     int64 // microseconds added to the physical source for this node
	physical uint64
	logical  uint16
}

var _ Oracle = (*HLC)(nil)

// NewHLC returns a clock over the given source with a fixed per-node skew.
func NewHLC(source TimeSource, skew time.Duration) *HLC {
	return &HLC{source: source, skew: skew.Microseconds()}
}

func (h *HLC) physNow() uint64 {
	p := int64(h.source()) + h.skew
	if p < 1 {
		p = 1
	}
	return uint64(p)
}

// next advances the clock for a local event and returns the new reading.
func (h *HLC) next() base.Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	pt := h.physNow()
	if pt > h.physical {
		h.physical = pt
		h.logical = 0
	} else {
		if h.logical == 1<<16-1 {
			h.physical++
			h.logical = 0
		} else {
			h.logical++
		}
	}
	return base.HLC(h.physical, h.logical)
}

// StartTS implements Oracle.
func (h *HLC) StartTS() base.Timestamp { return h.next() }

// PrepareTS implements Oracle.
func (h *HLC) PrepareTS() base.Timestamp { return h.next() }

// CommitTS implements Oracle: merge the participants' maximum prepare
// timestamp, then tick, yielding a commit timestamp strictly greater than
// every prepare contribution (Lamport's causality-increasing property).
func (h *HLC) CommitTS(maxPrepare base.Timestamp) base.Timestamp {
	h.Observe(maxPrepare)
	return h.next()
}

// Observe implements Oracle: merge a remote timestamp into the local clock.
func (h *HLC) Observe(ts base.Timestamp) {
	h.mu.Lock()
	defer h.mu.Unlock()
	pt := h.physNow()
	rp, rl := ts.Physical(), ts.Logical()
	switch {
	case pt > h.physical && pt > rp:
		h.physical, h.logical = pt, 0
	case rp > h.physical:
		h.physical, h.logical = rp, rl+1
	case h.physical > rp:
		h.logical++
	default: // equal physicals
		if rl >= h.logical {
			h.logical = rl
		}
		h.logical++
	}
}

// Now implements Oracle.
func (h *HLC) Now() base.Timestamp {
	h.mu.Lock()
	defer h.mu.Unlock()
	pt := h.physNow()
	if pt > h.physical {
		return base.HLC(pt, 0)
	}
	return base.HLC(h.physical, h.logical)
}

// Name implements Oracle.
func (h *HLC) Name() string { return "dts" }
