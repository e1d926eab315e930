// Package fault is the deterministic fault-injection layer for the §3.7
// crash-recovery experiments. A Registry holds named failpoint sites — one
// per migration phase transition, T_m boundary, WAL propagation batch and
// snapshot-copy chunk — and the armed Actions that fire there: injected
// errors, node crashes (any side effect via Do) and pauses. All randomness
// (probabilistic actions) comes from a single seeded *rand.Rand, so a chaos
// schedule replays exactly from its seed.
//
// The package sits below everything it injects into: it imports only the
// standard library, so core, repl and simnet can all take a *Registry
// without import cycles. A nil *Registry is valid and injects nothing —
// instrumented paths call Eval unconditionally and pay one nil check.
package fault

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Site names one failpoint. The constants below are the registered sites;
// Sites returns them for enumeration sweeps.
type Site string

// Registered failpoint sites. The core/* sites bracket the phase
// transitions of Figure 2 and the T_m 2PC boundary of §3.5.1/§3.7; the
// repl/* sites sit inside the data movement itself (per snapshot-copy chunk
// and per shipped WAL batch), where a crash interrupts a transfer mid-way
// rather than between phases.
const (
	// SiteBeforeSnapshot fires before any state is created (phase 1 entry).
	SiteBeforeSnapshot Site = "core/before-snapshot"
	// SiteAfterSnapshot fires after the snapshot copy, before propagation.
	SiteAfterSnapshot Site = "core/after-snapshot"
	// SiteAfterCatchup fires after async propagation catches up (§3.3→§3.4).
	SiteAfterCatchup Site = "core/after-catchup"
	// SiteBeforeTm fires after the mode change, before T_m starts.
	SiteBeforeTm Site = "core/before-tm"
	// SiteTmPrepared fires between T_m's prepare and its commit decision:
	// 2PC recovery must roll T_m back (§3.7).
	SiteTmPrepared Site = "core/tm-prepared"
	// SiteTmDecided fires after the coordinator records the commit decision
	// but before the second phase runs: recovery must commit T_m.
	SiteTmDecided Site = "core/tm-decided"
	// SiteTmCommitted fires after T_m committed everywhere, before the
	// source is diverted: recovery must drive the migration forward.
	SiteTmCommitted Site = "core/tm-committed"
	// SiteBeforeCleanup fires after dual execution drained, before the
	// source copy retires.
	SiteBeforeCleanup Site = "core/before-cleanup"
	// SiteSnapshotChunk fires before each snapshot-copy network batch.
	SiteSnapshotChunk Site = "repl/snapshot-chunk"
	// SiteShipBatch fires before each shipped propagation batch.
	SiteShipBatch Site = "repl/ship-batch"
	// SiteLeaseRefresh fires before each timestamp-lease RPC to the GTS
	// sequencer (clock.LeasedOracle). An Err models a failed lease RPC (the
	// oracle retries); a Do typically crashes the leasing node mid-refresh.
	SiteLeaseRefresh Site = "clock/lease-refresh"
	// SiteCommitPublish fires in every commit after its commit record is
	// durable and before the commit is published in the CLOG (txn.CommitAt,
	// on a manager given the registry by Manager.SetFaults). An Err models a
	// failed publication attempt (the committer retries: the decision is
	// already durable and final); a Do typically crashes the node between
	// the durable decision and its publication.
	SiteCommitPublish Site = "txn/commit-publish"
	// SiteHWMPersist fires before the replicated oracle persists its
	// timestamp high-water mark (the persist-before-grant fsync of
	// clock.ReplicatedGTS). An Err fails the persist — the dependent lease
	// grant fails and the client retries; a Do typically crashes the primary
	// mid-persist, so recovery must resume strictly above the last durable
	// mark.
	SiteHWMPersist Site = "clock/hwm-persist"
	// SiteFailover fires inside a standby's takeover, after detection and
	// before the fencing epoch is installed. An Err aborts this takeover
	// attempt (the monitor retries on its next tick); a Pause models delayed
	// delivery of the takeover; a Do typically crashes the standby
	// mid-takeover.
	SiteFailover Site = "clock/failover"
	// SiteStaleLeaseReject fires when the oracle primary rejects a lease
	// request carrying a stale fencing epoch — the enforcement point that
	// keeps a partitioned old primary's clients from refreshing fenced
	// leases. A Do typically crashes the rejecting (new) primary, stacking a
	// second failover on the first.
	SiteStaleLeaseReject Site = "clock/stale-lease-reject"
	// SiteValidateStart fires in the replay worker as it starts a MOCC
	// validation task, before the shadow transaction begins. It is a
	// schedule point rather than a crash site: a Do that parks the worker
	// lets a test order other replay work around a pending validation. It
	// is in neither Sites() nor OracleSites(), whose sweeps crash nodes.
	SiteValidateStart Site = "repl/validate-start"
)

var allSites = []Site{
	SiteBeforeSnapshot,
	SiteAfterSnapshot,
	SiteAfterCatchup,
	SiteBeforeTm,
	SiteTmPrepared,
	SiteTmDecided,
	SiteTmCommitted,
	SiteBeforeCleanup,
	SiteSnapshotChunk,
	SiteShipBatch,
}

// oracleSites are the failpoints inside the timestamp/commit machinery.
// Most only evaluate on clusters running a leased or replicated oracle, so
// they are enumerated separately from the migration-phase sweep (arming
// them on a per-request-GTS cluster would never fire).
var oracleSites = []Site{
	SiteLeaseRefresh,
	SiteCommitPublish,
	SiteHWMPersist,
	SiteFailover,
	SiteStaleLeaseReject,
}

// Sites returns every migration-path failpoint site (a copy; safe to
// reorder).
func Sites() []Site {
	return append([]Site(nil), allSites...)
}

// OracleSites returns the timestamp-oracle and commit-publication failpoint
// sites.
func OracleSites() []Site {
	return append([]Site(nil), oracleSites...)
}

// ErrInjected is the default error returned by an armed Action with no Err
// of its own. Callers classify injected failures with errors.Is.
var ErrInjected = errors.New("injected failure")

// Action describes what happens when an armed site is evaluated.
//
// Do runs first (typically node.Crash or a partition install), then Pause is
// slept, then Err is returned wrapped with the site name. An Action whose
// Err is nil does not fail the site: the crash or partition it installed
// surfaces through the normal error paths instead (ErrNodeDown,
// ErrUnreachable), which is the realistic shape. Set Err (ErrInjected works)
// to make the site itself fail — that models the controller detecting the
// fault at this point.
type Action struct {
	// Err, if non-nil, is returned (wrapped) from Eval when the action
	// fires.
	Err error
	// Do, if non-nil, runs when the action fires, before Err is returned.
	Do func()
	// Pause, if non-zero, is slept when the action fires (pause injection).
	Pause time.Duration
	// After skips the first After evaluations of the site (fire on hit
	// After+1, ...). Zero fires on the first hit.
	After uint64
	// Prob fires the action with this probability per eligible hit, drawn
	// from the registry's seeded rng. Zero or >= 1 fires deterministically.
	Prob float64
	// Once disarms the action after its first firing.
	Once bool
}

type armed struct {
	Action
	fired bool
}

// Registry holds the armed actions. All methods are safe for concurrent use
// and valid on a nil receiver (no-ops / zero values).
type Registry struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seed  int64
	armd  map[Site][]*armed
	hits  map[Site]uint64
	fired map[Site]uint64
}

// NewRegistry returns an empty registry whose probabilistic decisions derive
// from seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{
		rng:   rand.New(rand.NewSource(seed)),
		seed:  seed,
		armd:  make(map[Site][]*armed),
		hits:  make(map[Site]uint64),
		fired: make(map[Site]uint64),
	}
}

// Seed returns the registry's seed (printed by chaos failures for replay).
func (r *Registry) Seed() int64 {
	if r == nil {
		return 0
	}
	return r.seed
}

// Arm adds an action at the site. Multiple actions may be armed; the first
// eligible one fires per evaluation.
func (r *Registry) Arm(site Site, a Action) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armd[site] = append(r.armd[site], &armed{Action: a})
}

// Disarm removes every action at the site.
func (r *Registry) Disarm(site Site) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.armd, site)
}

// Reset disarms everything and clears the hit counters (the rng keeps its
// sequence; build a new registry for a fresh replay).
func (r *Registry) Reset() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.armd = make(map[Site][]*armed)
	r.hits = make(map[Site]uint64)
	r.fired = make(map[Site]uint64)
}

// Hits reports how many times the site was evaluated.
func (r *Registry) Hits(site Site) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.hits[site]
}

// Fired reports how many times an action fired at the site.
func (r *Registry) Fired(site Site) uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.fired[site]
}

// Eval evaluates the site: counts the hit, fires the first eligible armed
// action, and returns its (wrapped) error, nil when nothing fires or the
// firing action carries no Err. Safe on a nil registry.
func (r *Registry) Eval(site Site) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	r.hits[site]++
	hit := r.hits[site]
	var fire *armed
	for _, a := range r.armd[site] {
		if a.Once && a.fired {
			continue
		}
		if hit <= a.After {
			continue
		}
		if a.Prob > 0 && a.Prob < 1 && r.rng.Float64() >= a.Prob {
			continue
		}
		a.fired = true
		fire = a
		break
	}
	if fire != nil {
		r.fired[site]++
	}
	r.mu.Unlock()
	if fire == nil {
		return nil
	}
	if fire.Do != nil {
		fire.Do()
	}
	if fire.Pause > 0 {
		time.Sleep(fire.Pause)
	}
	if fire.Err == nil {
		return nil
	}
	return fmt.Errorf("fault: site %s: %w", site, fire.Err)
}
