// Package obs is the observability layer for migration phases: structured
// trace events (phase transitions with GTS timestamps, per-transaction
// block/abort causes, dual-execution divergences), atomic counters and
// bounded histograms, all behind the Recorder interface. The default is no
// recorder at all — instrumented hot paths hold a Recorder in a Holder (or a
// plain field) and pay a single nil-check when observability is disabled.
//
// The collecting implementation is Trace (trace.go): a bounded event buffer,
// the counter array, the histogram set, and per-phase aggregates that back
// the bench harness' per-phase breakdown tables. Event streams dump as JSONL
// through Trace.WriteJSONL (the -trace flag of cmd/remus-bench).
package obs

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"remus/internal/base"
)

// EventKind classifies trace events.
type EventKind uint8

const (
	// EvPhase is a migration phase transition (Phase entered, From left).
	EvPhase EventKind = iota + 1
	// EvBlock is a transaction blocked by the migration machinery for Dur
	// (MOCC validation wait, shard-lock wait, routing suspension, chunk
	// pull stall).
	EvBlock
	// EvAbort is a transaction abort with its classified cause.
	EvAbort
	// EvDivergence is a dual-execution divergence: the shadow transaction's
	// outcome on the destination departed from the source transaction's
	// (validation WW-conflict, prepared shadow rolled back, orphan shadow).
	EvDivergence
	// EvMark is a freeform timeline annotation.
	EvMark
	// EvPlan is an autobalancing planner decision: a rebalance move planned,
	// executed, skipped by hysteresis, or backed off after a failed
	// migration. Cause carries the decision tag (CausePlan*), Note the move
	// (shards, source, destination, policy reason).
	EvPlan
)

// String returns the JSONL kind tag.
func (k EventKind) String() string {
	switch k {
	case EvPhase:
		return "phase"
	case EvBlock:
		return "block"
	case EvAbort:
		return "abort"
	case EvDivergence:
		return "divergence"
	case EvMark:
		return "mark"
	case EvPlan:
		return "plan"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Event is one structured trace record. Zero-valued fields are omitted from
// the JSONL encoding; the recorder assigns Seq and At (offset from its
// epoch) and fills in Phase from the current migration phase when empty.
type Event struct {
	Seq   uint64
	At    time.Duration
	Kind  EventKind
	Phase string // phase in force (EvPhase: the phase being entered)
	From  string // EvPhase only: the phase being left
	GTS   base.Timestamp
	XID   base.XID
	Txn   base.TxnID
	Shard base.ShardID
	Node  base.NodeID
	Cause string
	Dur   time.Duration
	Note  string
}

// Counter identifies one atomic counter.
type Counter uint8

const (
	// CtrCommits counts committed transactions (cluster wide).
	CtrCommits Counter = iota
	// CtrAborts counts aborted transactions.
	CtrAborts
	// CtrMigrationAborts counts aborts caused by migration machinery.
	CtrMigrationAborts
	// CtrWWConflicts counts aborts caused by write-write conflicts.
	CtrWWConflicts
	// CtrValidations counts transactions entering the MOCC validation stage.
	CtrValidations
	// CtrValidationTimeouts counts validation waits that timed out.
	CtrValidationTimeouts
	// CtrUnsyncTxns counts TS_unsync transactions captured at the barrier.
	CtrUnsyncTxns
	// CtrDrainedTxns counts transactions waited out during dual execution.
	CtrDrainedTxns
	// CtrShippedTxns counts transactions shipped by the propagator.
	CtrShippedTxns
	// CtrShippedRecords counts change records shipped.
	CtrShippedRecords
	// CtrSpilledTxns counts update cache queues that spilled to disk.
	CtrSpilledTxns
	// CtrDroppedTxns counts shipped-skipped transactions covered by the
	// snapshot copy.
	CtrDroppedTxns
	// CtrReplayApplied counts change records applied on the destination.
	CtrReplayApplied
	// CtrReplayConflicts counts WW-conflicts found during MOCC validation.
	CtrReplayConflicts
	// CtrSnapshotTuples counts tuples streamed by snapshot copies.
	CtrSnapshotTuples
	// CtrSnapshotBytes counts bytes streamed by snapshot copies.
	CtrSnapshotBytes
	// CtrNetMessages counts interconnect messages.
	CtrNetMessages
	// CtrNetBytes counts interconnect payload bytes.
	CtrNetBytes
	// CtrBaselineKills counts transactions killed by baseline migrations.
	CtrBaselineKills
	// CtrChunkPulls counts Squall chunk pulls.
	CtrChunkPulls
	// CtrPlannerPlans counts rebalance plans generated by planner policies.
	CtrPlannerPlans
	// CtrPlannerMoves counts planner-driven migrations executed successfully.
	CtrPlannerMoves
	// CtrPlannerSkips counts planned moves suppressed by hysteresis
	// (cooldown, reversal guard, stale placement).
	CtrPlannerSkips
	// CtrPlannerBackoffs counts executor backoffs after failed migrations.
	CtrPlannerBackoffs
	// CtrNetDrops counts interconnect messages dropped (and retransmitted)
	// by the fault plane.
	CtrNetDrops
	// CtrNetRejects counts sends refused by a partitioned link.
	CtrNetRejects
	// CtrMigrationRetries counts failed migrations re-initiated by the
	// controller's retry policy.
	CtrMigrationRetries
	// CtrRecoverCompleted counts recoveries that drove a failed migration
	// to completion (T_m had committed).
	CtrRecoverCompleted
	// CtrRecoverRolledBack counts recoveries that rolled a failed
	// migration back (T_m had not committed).
	CtrRecoverRolledBack
	// CtrRecoverFailed counts recovery attempts that themselves failed
	// (nodes still down, propagation unrecoverable) and were retried.
	CtrRecoverFailed
	// CtrGTSRequests counts round trips to the central GTS sequencer
	// (per-request allocations and lease refreshes alike).
	CtrGTSRequests
	// CtrLeaseRefreshes counts timestamp-lease refreshes by leased oracles.
	CtrLeaseRefreshes
	// CtrCkptPasses counts fuzzy checkpoint generations written to disk.
	CtrCkptPasses
	// CtrCkptTuples counts tuples written into checkpoint files.
	CtrCkptTuples
	// CtrCkptBytes counts checkpoint page payload bytes written to disk.
	CtrCkptBytes
	// CtrCkptShipTuples counts tuples shipped from checkpoint files during a
	// migration initial copy (instead of live version chains).
	CtrCkptShipTuples
	// CtrCkptShipBytes counts bytes shipped from checkpoint files during a
	// migration initial copy.
	CtrCkptShipBytes
	// CtrOracleFailovers counts oracle primary failovers (a standby installed
	// a new fencing epoch and took over timestamp allocation).
	CtrOracleFailovers
	// CtrLeaseFenceRejections counts lease requests rejected for carrying a
	// stale fencing epoch (an outstanding lease invalidated by failover).
	CtrLeaseFenceRejections
	// CtrHWMPersists counts durable high-water-mark writes by the replicated
	// oracle (the persist-before-grant fsyncs; leasing amortizes these).
	CtrHWMPersists

	// NumCounters bounds the counter array.
	NumCounters
)

var counterNames = [NumCounters]string{
	CtrCommits:              "commits",
	CtrAborts:               "aborts",
	CtrMigrationAborts:      "migration_aborts",
	CtrWWConflicts:          "ww_conflicts",
	CtrValidations:          "validations",
	CtrValidationTimeouts:   "validation_timeouts",
	CtrUnsyncTxns:           "unsync_txns",
	CtrDrainedTxns:          "drained_txns",
	CtrShippedTxns:          "shipped_txns",
	CtrShippedRecords:       "shipped_records",
	CtrSpilledTxns:          "spilled_txns",
	CtrDroppedTxns:          "dropped_txns",
	CtrReplayApplied:        "replay_applied",
	CtrReplayConflicts:      "replay_conflicts",
	CtrSnapshotTuples:       "snapshot_tuples",
	CtrSnapshotBytes:        "snapshot_bytes",
	CtrNetMessages:          "net_messages",
	CtrNetBytes:             "net_bytes",
	CtrBaselineKills:        "baseline_kills",
	CtrChunkPulls:           "chunk_pulls",
	CtrPlannerPlans:         "planner_plans",
	CtrPlannerMoves:         "planner_moves",
	CtrPlannerSkips:         "planner_skips",
	CtrPlannerBackoffs:      "planner_backoffs",
	CtrNetDrops:             "net_drops",
	CtrNetRejects:           "net_rejects",
	CtrMigrationRetries:     "migration_retries",
	CtrRecoverCompleted:     "recover_completed",
	CtrRecoverRolledBack:    "recover_rolled_back",
	CtrRecoverFailed:        "recover_failed",
	CtrGTSRequests:          "gts_requests",
	CtrLeaseRefreshes:       "lease_refreshes",
	CtrCkptPasses:           "ckpt_passes",
	CtrCkptTuples:           "ckpt_tuples",
	CtrCkptBytes:            "ckpt_bytes",
	CtrCkptShipTuples:       "ckpt_ship_tuples",
	CtrCkptShipBytes:        "ckpt_ship_bytes",
	CtrOracleFailovers:      "oracle_failovers_total",
	CtrLeaseFenceRejections: "lease_fence_rejections",
	CtrHWMPersists:          "oracle_hwm_persists",
}

// String returns the counter's snake_case name.
func (c Counter) String() string {
	if int(c) < len(counterNames) && counterNames[c] != "" {
		return counterNames[c]
	}
	return fmt.Sprintf("counter(%d)", uint8(c))
}

// Hist identifies one bounded histogram.
type Hist uint8

const (
	// HistCommitLatency records commit latency in nanoseconds.
	HistCommitLatency Hist = iota
	// HistValidationWait records MOCC validation wait in nanoseconds.
	HistValidationWait
	// HistBlockWait records non-validation block durations in nanoseconds
	// (shard-lock waits, routing suspension, pull stalls).
	HistBlockWait
	// HistCatchupLag records the propagator's catch-up lag in records.
	HistCatchupLag
	// HistShipGroupTxns records transactions coalesced per shipped group.
	HistShipGroupTxns
	// HistShipFlushDelay records nanoseconds from a ship group's first
	// parked transaction to its flush.
	HistShipFlushDelay
	// HistOracleUnavail records the oracle unavailability window per failover
	// in nanoseconds: primary loss to the standby's first grant-capable
	// moment.
	HistOracleUnavail
	// HistOracleStall records per-request client-side stall in nanoseconds
	// while the oracle was unreachable (retry/backoff time inside
	// OracleClient).
	HistOracleStall

	// NumHists bounds the histogram array.
	NumHists
)

var histNames = [NumHists]string{
	HistCommitLatency:  "commit_latency_ns",
	HistValidationWait: "validation_wait_ns",
	HistBlockWait:      "block_wait_ns",
	HistCatchupLag:     "catchup_lag_records",
	HistShipGroupTxns:  "ship_group_txns",
	HistShipFlushDelay: "ship_flush_delay_ns",
	HistOracleUnavail:  "oracle_unavail_ns",
	HistOracleStall:    "oracle_client_stall_ns",
}

// String returns the histogram's snake_case name.
func (h Hist) String() string {
	if int(h) < len(histNames) && histNames[h] != "" {
		return histNames[h]
	}
	return fmt.Sprintf("hist(%d)", uint8(h))
}

// Recorder receives trace events, counter increments and histogram samples.
// Implementations must be safe for concurrent use from every goroutine of
// the cluster. Instrumented code treats a nil Recorder as disabled.
type Recorder interface {
	// Event records one structured trace event.
	Event(e Event)
	// Add increments a counter.
	Add(c Counter, delta uint64)
	// Observe records one histogram sample.
	Observe(h Hist, v uint64)
}

// Nop is a Recorder that drops everything. It exists for callers that want a
// non-nil Recorder; instrumented hot paths prefer a nil field (one nil-check
// and no interface dispatch at all when disabled).
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Event(Event)          {}
func (nopRecorder) Add(Counter, uint64)  {}
func (nopRecorder) Observe(Hist, uint64) {}

// Holder atomically publishes a Recorder for lock-free hot-path reads, so a
// recorder can be installed on live components (a node's transaction
// manager, the shared interconnect) without racing in-flight operations.
// The zero value holds no recorder.
type Holder struct {
	p atomic.Pointer[Recorder]
}

// Store publishes r (nil disables recording).
func (h *Holder) Store(r Recorder) {
	if r == nil {
		h.p.Store(nil)
		return
	}
	h.p.Store(&r)
}

// Load returns the published Recorder, or nil when recording is disabled.
func (h *Holder) Load() Recorder {
	if p := h.p.Load(); p != nil {
		return *p
	}
	return nil
}

// Abort/block cause tags shared by the instrumentation sites.
const (
	// CauseMigration tags migration-induced aborts (base.ErrMigrationAbort).
	CauseMigration = "migration-abort"
	// CauseWWConflict tags write-write conflict aborts.
	CauseWWConflict = "ww-conflict"
	// CauseTimeout tags lock/validation/phase timeout aborts.
	CauseTimeout = "timeout"
	// CauseShardMoved tags retry-on-owner redirects.
	CauseShardMoved = "shard-moved"
	// CauseOther tags voluntary or unclassified aborts.
	CauseOther = "abort"
	// CauseValidation tags MOCC validation waits.
	CauseValidation = "mocc-validation"
	// CauseLockWait tags lock-and-abort shard-lock waits.
	CauseLockWait = "shard-lock-wait"
	// CauseRouteSuspend tags wait-and-remaster routing suspension waits.
	CauseRouteSuspend = "routing-suspended"
	// CauseChunkPull tags Squall chunk-pull stalls.
	CauseChunkPull = "chunk-pull"
	// CausePlanProposed tags EvPlan events for moves a policy proposed.
	CausePlanProposed = "plan-proposed"
	// CausePlanExecuted tags EvPlan events for moves the executor completed.
	CausePlanExecuted = "plan-executed"
	// CausePlanSkipped tags EvPlan events for moves suppressed by hysteresis.
	CausePlanSkipped = "plan-skipped"
	// CausePlanBackoff tags EvPlan events for executor backoffs after a
	// failed migration.
	CausePlanBackoff = "plan-backoff"
)

// ClassifyAbort maps an abort error to its cause tag without allocating.
func ClassifyAbort(err error) string {
	switch {
	case err == nil:
		return CauseOther
	case errors.Is(err, base.ErrMigrationAbort):
		return CauseMigration
	case errors.Is(err, base.ErrWWConflict):
		return CauseWWConflict
	case errors.Is(err, base.ErrTimeout):
		return CauseTimeout
	case errors.Is(err, base.ErrShardMoved):
		return CauseShardMoved
	default:
		return CauseOther
	}
}
