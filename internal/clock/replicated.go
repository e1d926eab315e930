// Replicated GTS: a primary/standby timestamp oracle with durable fenced
// leases. The single-process GTS of clock.go is the §2.2 sequencer reduced
// to an atomic counter; kill it and every node stalls forever, restart it
// naively and it re-issues timestamps below ones already observed, silently
// breaking snapshot isolation. This file makes the sequencer survivable:
//
//   - Persist before grant. The primary never lets a timestamp above the
//     durably persisted high-water mark escape. Reservations are batched
//     (Batch timestamps per persist) so leasing keeps the steady-state fsync
//     rate amortized, exactly like the lease batching above it.
//   - Fencing epochs. Every lease carries the epoch it was granted under. A
//     takeover (or restart) installs epoch+1 through a conditional write on
//     the HWM register; from that moment every outstanding lease is fenced —
//     refreshes carrying the old epoch are rejected with the current epoch so
//     the client re-leases transparently — and a partitioned old primary is
//     fenced on its next register access, before it can reserve anything new.
//     Until then it can only grant from its already-persisted reservation,
//     which the takeover placed wholly below the new primary's range, so
//     uniqueness survives the split-brain window.
//   - Standby takeover. A monitor probes the primary endpoint through the
//     simulated network (so partitions and crashes both read as misses);
//     Misses consecutive failures trigger a takeover that resumes at HWM+1.
//
// The hwmRegister is the serialization point: it models the replicated,
// always-available metadata quorum (the standby tracking the persisted HWM)
// that real deployments build on a consensus group. Fencing is enforced by
// its conditional writes, the way lease fencing works on shared storage.
package clock

import (
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/obs"
	"remus/internal/retry"
	"remus/internal/simnet"
)

// HAConfig shapes a replicated oracle group. The zero value of every field
// takes the documented default.
type HAConfig struct {
	// Replicas is the group size (one primary, the rest standbys).
	// Default 2.
	Replicas int
	// Batch is the high-water-mark reservation batch: each persist raises
	// the durable mark Batch timestamps past the grant that forced it, so
	// the next Batch worth of grants need no fsync. Default 1024.
	Batch uint64
	// Heartbeat is the standby's probe interval. Default 5ms.
	Heartbeat time.Duration
	// Misses is how many consecutive probe failures trigger a takeover.
	// Default 4.
	Misses int
	// RPCTimeout is the client's per-endpoint patience: the stall a request
	// to a crashed endpoint costs before the client rotates to the next.
	// Default 1ms.
	RPCTimeout time.Duration
	// TakeoverDelay is slept inside every takeover between detection and the
	// fencing write (models takeover coordination cost; the failover bench
	// sweeps it). Default 0.
	TakeoverDelay time.Duration
	// EndpointBase numbers the oracle endpoints on the simulated network:
	// replica i is node EndpointBase+i, out of the way of cluster nodes.
	// Default 10000.
	EndpointBase base.NodeID
	// Store persists the (epoch, HWM) pair. Default: an in-memory store
	// (durable across replica crash/recover, lost with the process); cluster
	// wiring passes storage.OracleStore for disk durability.
	Store HWMStore
	// Net, if non-nil, charges lease and probe round trips on the simulated
	// network, making oracle endpoints crash- and partition-visible.
	Net *simnet.Network
	// Faults, if non-nil, is evaluated at the oracle failpoints
	// (fault.SiteHWMPersist, SiteFailover, SiteStaleLeaseReject).
	Faults *fault.Registry
	// Recorder, if non-nil, receives failover counters, fence-rejection
	// counts, persist counts and unavailability-window samples.
	Recorder obs.Recorder
	// Retry shapes the client's backoff between full endpoint rotations.
	// Default: unlimited attempts, 1ms initial backoff, 10ms cap, 0.2
	// jitter.
	Retry retry.Policy
}

func (c HAConfig) withDefaults() HAConfig {
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.Batch == 0 {
		c.Batch = 1024
	}
	if c.Heartbeat <= 0 {
		c.Heartbeat = 5 * time.Millisecond
	}
	if c.Misses <= 0 {
		c.Misses = 4
	}
	if c.RPCTimeout <= 0 {
		c.RPCTimeout = time.Millisecond
	}
	if c.EndpointBase == 0 {
		c.EndpointBase = 10000
	}
	if c.Store == nil {
		c.Store = NewMemHWMStore()
	}
	if c.Retry.MaxAttempts == 0 {
		c.Retry.MaxAttempts = -1
	}
	if c.Retry.Backoff <= 0 {
		c.Retry.Backoff = time.Millisecond
	}
	if c.Retry.MaxBackoff <= 0 {
		c.Retry.MaxBackoff = 10 * time.Millisecond
	}
	if c.Retry.Jitter <= 0 {
		c.Retry.Jitter = 0.2
	}
	if c.Retry.Seed == 0 {
		c.Retry.Seed = 1
	}
	return c
}

// hwmRegister is the group's serialization point: the durable (epoch, HWM)
// pair plus the conditional-write rules that make epochs fence. All disk
// writes flow through it; SiteHWMPersist fires before each one.
type hwmRegister struct {
	mu     sync.Mutex
	epoch  uint64
	hwm    uint64
	store  HWMStore
	faults *fault.Registry
	rec    obs.Recorder
}

// extend renews the caller's claim on epoch and raises the durable mark to
// hwm when that advances it. A stale epoch fails with FencedError (the
// caller lost the primaryship). A pure renewal (hwm not above the mark)
// touches no disk — that is the batching that keeps steady-state grants
// fsync-free.
func (r *hwmRegister) extend(epoch, hwm uint64) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch < r.epoch {
		return &FencedError{Epoch: r.epoch}
	}
	if hwm <= r.hwm {
		return nil
	}
	if err := r.persistLocked(r.epoch, hwm); err != nil {
		return err
	}
	r.hwm = hwm
	return nil
}

// fence installs a new fencing epoch (strictly above the current one) and
// returns the durable high-water mark the new primary must resume above.
// Raced installs of the same epoch lose with a FencedError.
func (r *hwmRegister) fence(epoch uint64) (uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if epoch <= r.epoch {
		return 0, &FencedError{Epoch: r.epoch}
	}
	if err := r.persistLocked(epoch, r.hwm); err != nil {
		return 0, err
	}
	r.epoch = epoch
	return r.hwm, nil
}

// persistLocked writes the pair through the store. Caller holds r.mu.
func (r *hwmRegister) persistLocked(epoch, hwm uint64) error {
	if err := r.faults.Eval(fault.SiteHWMPersist); err != nil {
		return err
	}
	if err := r.store.Save(epoch, hwm); err != nil {
		return err
	}
	if r.rec != nil {
		r.rec.Add(obs.CtrHWMPersists, 1)
	}
	return nil
}

// state returns the current (epoch, hwm) pair.
func (r *hwmRegister) state() (uint64, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch, r.hwm
}

// Replica is one oracle endpoint. Exactly one replica is the nominal primary
// at any time; the others are standbys that refuse grants.
type Replica struct {
	group *ReplicatedGTS
	idx   int
	id    base.NodeID

	crashed   atomic.Bool
	crashedAt atomic.Int64 // wall ns of the crash, for the unavailability window

	mu       sync.Mutex
	primary  bool
	epoch    uint64 // fencing epoch this primaryship runs under
	next     uint64 // next timestamp to grant
	reserved uint64 // persisted ceiling: grants up to here need no fsync
}

// ID returns the replica's simulated-network node id.
func (r *Replica) ID() base.NodeID { return r.id }

// IsPrimary reports whether this replica is the nominal primary.
func (r *Replica) IsPrimary() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.primary
}

// Crashed reports whether the replica is down.
func (r *Replica) Crashed() bool { return r.crashed.Load() }

// Crash takes the replica down: it answers nothing until Recover. Its
// volatile grant cursor is lost — safe, because persist-before-grant means
// the durable mark already covers everything it handed out.
func (r *Replica) Crash() {
	r.crashedAt.Store(time.Now().UnixNano())
	r.crashed.Store(true)
}

// Recover brings the replica back. A recovering standby (or an old primary
// that a standby already fenced) rejoins as standby. A replica that is still
// the nominal primary — it crashed and nobody took over yet — self-fences:
// it installs a new epoch and resumes at HWM+1, so the leases it granted
// before the crash can never be refreshed and its lost volatile cursor
// cannot cause a re-grant.
func (r *Replica) Recover() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.primary {
		epoch, _ := r.group.reg.state()
		hwm, err := r.group.reg.fence(epoch + 1)
		if err != nil {
			// Lost a race with a concurrent takeover (or the persist site is
			// armed): step down, the winner is primary.
			r.primary = false
		} else {
			r.epoch = epoch + 1
			r.next = hwm + 1
			r.reserved = hwm
			r.group.noteFailover(r, time.Unix(0, r.crashedAt.Load()))
		}
	}
	r.crashed.Store(false)
}

// grant reserves n contiguous timestamps (a block of stride 1, DESIGN §7)
// under the client's fencing epoch. It enforces, in order: liveness (crashed
// replicas answer nothing), role (standbys refuse), the fencing invariant
// (stale epochs are rejected with the current one), and persist-before-grant
// (the durable mark must cover the grant before it escapes).
func (r *Replica) grant(epoch, n uint64) (LeaseGrant, error) {
	if n == 0 {
		n = 1
	}
	if r.crashed.Load() {
		return LeaseGrant{}, ErrOracleDown
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.primary {
		return LeaseGrant{}, ErrOracleDown
	}
	// Epoch 0 is the bootstrap wildcard: a client with no epoch yet (first
	// lease, or discovery after its oracle vanished) accepts whatever the
	// current epoch is. Anything else must match exactly.
	if epoch != 0 && epoch != r.epoch {
		r.group.faults.Eval(fault.SiteStaleLeaseReject)
		if rec := r.group.rec; rec != nil {
			rec.Add(obs.CtrLeaseFenceRejections, 1)
		}
		return LeaseGrant{}, &FencedError{Epoch: r.epoch}
	}
	last := r.next + n - 1
	if last > r.reserved {
		// Persist before grant: raise the durable ceiling Batch past the
		// grant so the next Batch timestamps are covered without a persist.
		ceiling := last + r.group.cfg.Batch
		if err := r.group.reg.extend(r.epoch, ceiling); err != nil {
			if _, fenced := err.(*FencedError); fenced {
				// A takeover fenced this primaryship while we still thought
				// we held it. Step down; the client rotates to the winner.
				r.primary = false
			}
			return LeaseGrant{}, err
		}
		r.reserved = ceiling
	}
	g := LeaseGrant{Start: base.Timestamp(r.next), Count: n, Stride: 1, Epoch: r.epoch}
	r.next += n
	return g, nil
}

// ReplicatedGTS is a primary/standby oracle group. Build one with
// OpenReplicated; hand nodes an OracleClient each.
type ReplicatedGTS struct {
	cfg      HAConfig
	reg      *hwmRegister
	replicas []*Replica
	faults   *fault.Registry
	rec      obs.Recorder

	pidx atomic.Int32 // advisory index of the nominal primary (probe target)

	failovers  atomic.Uint64
	lastOutage atomic.Int64 // ns of the last failover's unavailability window

	downSince atomic.Int64 // wall ns of the first missed probe, 0 when healthy

	stop chan struct{}
	wg   sync.WaitGroup
}

// OpenReplicated builds the group and starts its failure monitor. A fresh
// store bootstraps at epoch 1 with the mark GTS starts from, so the first
// granted timestamp equals the single-process sequencer's. An existing store
// is a restart, and a restart is a takeover: the epoch is bumped so every
// lease granted by the previous incarnation is fenced, and granting resumes
// strictly above the durable mark.
func OpenReplicated(cfg HAConfig) (*ReplicatedGTS, error) {
	cfg = cfg.withDefaults()
	g := &ReplicatedGTS{
		cfg:    cfg,
		faults: cfg.Faults,
		rec:    cfg.Recorder,
		stop:   make(chan struct{}),
	}
	g.reg = &hwmRegister{store: cfg.Store, faults: cfg.Faults, rec: cfg.Recorder}
	epoch, hwm, err := cfg.Store.Load()
	if err != nil {
		return nil, err
	}
	if epoch == 0 {
		// Fresh store: same origin as NewGTS (counter at TsBootstrap+1).
		hwm = uint64(base.TsBootstrap) + 1
	}
	g.reg.epoch, g.reg.hwm = epoch, hwm
	if _, err := g.reg.fence(epoch + 1); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Replicas; i++ {
		g.replicas = append(g.replicas, &Replica{group: g, idx: i, id: cfg.EndpointBase + base.NodeID(i)})
	}
	p := g.replicas[0]
	p.primary = true
	p.epoch = epoch + 1
	p.next = hwm + 1
	p.reserved = hwm
	g.pidx.Store(0)
	g.wg.Add(1)
	go g.monitor()
	return g, nil
}

// Close stops the failure monitor.
func (g *ReplicatedGTS) Close() {
	select {
	case <-g.stop:
	default:
		close(g.stop)
	}
	g.wg.Wait()
}

// Replica returns endpoint i (crash/recover handle for chaos tests).
func (g *ReplicatedGTS) Replica(i int) *Replica { return g.replicas[i] }

// Replicas returns the group size.
func (g *ReplicatedGTS) Replicas() int { return len(g.replicas) }

// Primary returns the nominal primary replica.
func (g *ReplicatedGTS) Primary() *Replica { return g.replicas[g.pidx.Load()] }

// Epoch returns the current fencing epoch.
func (g *ReplicatedGTS) Epoch() uint64 {
	e, _ := g.reg.state()
	return e
}

// HWM returns the durable high-water mark: no timestamp above it has ever
// been granted, and no future grant will be at or below a mark loaded after
// a restart.
func (g *ReplicatedGTS) HWM() base.Timestamp {
	_, h := g.reg.state()
	return base.Timestamp(h)
}

// Failovers reports completed takeovers (self-fencing recoveries included).
func (g *ReplicatedGTS) Failovers() uint64 { return g.failovers.Load() }

// LastOutage reports the unavailability window of the most recent failover:
// primary loss to the new primary's first grant-capable moment.
func (g *ReplicatedGTS) LastOutage() time.Duration {
	return time.Duration(g.lastOutage.Load())
}

// Current implements the monitoring side of Leaser for the group: the latest
// granted timestamp (the nominal primary's cursor; the durable mark when the
// primary is unreadable mid-failover).
func (g *ReplicatedGTS) Current() base.Timestamp {
	p := g.Primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.next > 0 {
		return base.Timestamp(p.next - 1)
	}
	return g.HWM()
}

// AdvanceTo raises the sequence past ts (restart-from-disk recovery parity
// with GTS.AdvanceTo). Persist-before-grant already guarantees every
// recovered timestamp sits at or below the durable mark, so this is a
// defensive raise of the live cursor, not a correctness requirement.
func (g *ReplicatedGTS) AdvanceTo(ts base.Timestamp) {
	p := g.Primary()
	p.mu.Lock()
	defer p.mu.Unlock()
	if uint64(ts) >= p.next {
		if uint64(ts) > p.reserved {
			if err := g.reg.extend(p.epoch, uint64(ts)+g.cfg.Batch); err != nil {
				return // fenced: the new primary already resumes above ts
			}
			p.reserved = uint64(ts) + g.cfg.Batch
		}
		p.next = uint64(ts) + 1
	}
}

// noteFailover publishes one completed takeover: counter, unavailability
// window (outageStart → now), and a trace event.
func (g *ReplicatedGTS) noteFailover(newPrimary *Replica, outageStart time.Time) {
	g.pidx.Store(int32(newPrimary.idx))
	g.failovers.Add(1)
	window := time.Duration(0)
	if !outageStart.IsZero() {
		window = time.Since(outageStart)
	}
	g.lastOutage.Store(int64(window))
	g.downSince.Store(0)
	if g.rec != nil {
		g.rec.Add(obs.CtrOracleFailovers, 1)
		g.rec.Observe(obs.HistOracleUnavail, uint64(window))
		g.rec.Event(obs.Event{
			Kind:  obs.EvMark,
			Node:  newPrimary.id,
			Cause: "oracle-failover",
			Dur:   window,
			Note:  "standby fenced outstanding leases and took over",
		})
	}
}

// monitor is the failure detector: every Heartbeat the first live standby
// probes the nominal primary through the network (a crash or a partition on
// either direction of the probe link reads as a miss); Misses consecutive
// misses trigger a takeover.
func (g *ReplicatedGTS) monitor() {
	defer g.wg.Done()
	ticker := time.NewTicker(g.cfg.Heartbeat)
	defer ticker.Stop()
	misses := 0
	for {
		select {
		case <-g.stop:
			return
		case <-ticker.C:
		}
		prim := g.Primary()
		cand := g.standby(prim)
		if cand == nil {
			misses = 0 // nobody to take over; keep waiting
			continue
		}
		if g.probe(cand, prim) {
			misses = 0
			g.downSince.Store(0)
			continue
		}
		if misses == 0 {
			g.downSince.CompareAndSwap(0, time.Now().UnixNano())
		}
		if misses++; misses < g.cfg.Misses {
			continue
		}
		if g.takeover(cand, prim) {
			misses = 0
		}
		// On a failed takeover keep misses saturated: retry next tick.
		if misses >= g.cfg.Misses {
			misses = g.cfg.Misses - 1
		}
	}
}

// standby returns the first live replica that is not the primary, nil when
// none is up.
func (g *ReplicatedGTS) standby(prim *Replica) *Replica {
	for _, r := range g.replicas {
		if r != prim && !r.crashed.Load() {
			return r
		}
	}
	return nil
}

// probe reports whether the primary answered the standby's heartbeat.
func (g *ReplicatedGTS) probe(from, prim *Replica) bool {
	if prim.crashed.Load() {
		return false
	}
	if g.cfg.Net != nil {
		if err := g.cfg.Net.RoundTripBetween(from.id, prim.id, 16); err != nil {
			return false
		}
	}
	return true
}

// takeover promotes cand: the SiteFailover failpoint fires between detection
// and the fencing write (an Err aborts this attempt, a Pause delays the
// takeover, a Do can crash cand mid-takeover), then the fencing epoch is
// installed through the register and cand resumes at HWM+1. The promotion is
// recorded even if cand crashed mid-takeover — it is the nominal primary and
// will self-fence on Recover — so the group never ends up with two primaries
// or none.
func (g *ReplicatedGTS) takeover(cand, prim *Replica) bool {
	if err := g.faults.Eval(fault.SiteFailover); err != nil {
		return false
	}
	if g.cfg.TakeoverDelay > 0 {
		time.Sleep(g.cfg.TakeoverDelay)
	}
	epoch, _ := g.reg.state()
	hwm, err := g.reg.fence(epoch + 1)
	if err != nil {
		return false
	}
	outageStart := time.Time{}
	if ds := g.downSince.Load(); ds != 0 {
		outageStart = time.Unix(0, ds)
	}
	if prim.crashed.Load() {
		if at := prim.crashedAt.Load(); at != 0 && (outageStart.IsZero() || at < outageStart.UnixNano()) {
			outageStart = time.Unix(0, at)
		}
	}
	cand.mu.Lock()
	cand.primary = true
	cand.epoch = epoch + 1
	cand.next = hwm + 1
	cand.reserved = hwm
	cand.mu.Unlock()
	prim.mu.Lock()
	prim.primary = false
	prim.mu.Unlock()
	g.noteFailover(cand, outageStart)
	return true
}

// ---------------------------------------------------------------------------
// OracleClient: a node's handle on the replicated group.

// OracleClient implements Leaser against a ReplicatedGTS. It rotates across
// the group's endpoints, pays the simulated network per attempt (so oracle
// partitions stall it exactly like a real client), and retries full failed
// rotations under the configured capped backoff — forever, because a
// timestamp oracle outage is a stall, not an error, to the transaction layer
// above. A FencedError is returned immediately: LeasedOracle adopts the new
// epoch and re-leases transparently.
type OracleClient struct {
	group *ReplicatedGTS
	id    base.NodeID

	mu  sync.Mutex
	cur int // endpoint preference from the last success
}

var _ Leaser = (*OracleClient)(nil)

// NewOracleClient returns node id's handle on the group.
func NewOracleClient(group *ReplicatedGTS, id base.NodeID) *OracleClient {
	return &OracleClient{group: group, id: id}
}

// GrantLease implements Leaser.
func (c *OracleClient) GrantLease(epoch, n uint64) (LeaseGrant, error) {
	g := c.group
	start := time.Now()
	failures := 0
	record := func() {
		if failures > 0 && g.rec != nil {
			g.rec.Observe(obs.HistOracleStall, uint64(time.Since(start)))
		}
	}
	bo := retry.New(g.cfg.Retry)
	for bo.Next() {
		c.mu.Lock()
		first := c.cur
		c.mu.Unlock()
		for i := 0; i < len(g.replicas); i++ {
			idx := (first + i) % len(g.replicas)
			r := g.replicas[idx]
			if r.crashed.Load() {
				// A dead endpoint costs the client its RPC timeout before it
				// gives up and rotates.
				time.Sleep(g.cfg.RPCTimeout)
				failures++
				continue
			}
			if g.cfg.Net != nil {
				if err := g.cfg.Net.RoundTripBetween(c.id, r.id, 16); err != nil {
					failures++
					continue
				}
			}
			grant, err := r.grant(epoch, n)
			if err == nil {
				c.mu.Lock()
				c.cur = idx
				c.mu.Unlock()
				record()
				return grant, nil
			}
			if fe, ok := err.(*FencedError); ok {
				record()
				return LeaseGrant{}, fe
			}
			failures++ // standby, or persist failure: rotate on
		}
	}
	record()
	return LeaseGrant{}, ErrOracleDown
}

// Current implements Leaser (monitoring only; no network charge, mirroring
// LeasedOracle.Now over the in-process GTS).
func (c *OracleClient) Current() base.Timestamp { return c.group.Current() }
