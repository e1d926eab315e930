package core

import (
	"fmt"
	"time"

	"remus/internal/base"
	"remus/internal/node"
	"remus/internal/repl"
)

// residualResolveWait bounds how long recovery waits for a still-prepared
// source transaction's coordinator to decide before rolling its shadow back
// (the coordinator is presumed lost after that).
const residualResolveWait = 2 * time.Second

// Recover resolves a migration stopped by a failure (§3.7). The caller must
// have brought crashed nodes back with node.Recover first. The decision tree
// follows the paper:
//
//   - first resolve T_m with 2PC recovery: it commits iff the coordinator
//     recorded a commit decision (entered the second phase) before the
//     crash;
//   - terminate residual source transactions waiting for validation
//     verdicts;
//   - resolve residual prepared shadow transactions to the outcome of their
//     source transactions;
//   - if T_m did not commit, the migration rolls back: the partially
//     migrated data on the destination is cleaned up and the source keeps
//     serving; the migration can be initiated again;
//   - if T_m committed, the destination owns the shards and the migration
//     is driven to completion (divert, drain, retire the source copy).
//
// Calling Recover on a migration that is not failed returns
// base.ErrNotFailed (wrapped): there is nothing to recover.
func (m *Migration) Recover() (*Report, error) {
	if m.Phase() != PhaseFailed {
		return &m.report, fmt.Errorf("core: recover of migration in phase %v: %w", m.Phase(), base.ErrNotFailed)
	}
	if m.src.Crashed() || m.dst.Crashed() {
		return &m.report, fmt.Errorf("core: recover with nodes still down: %w", base.ErrNodeDown)
	}

	// 1. 2PC recovery of T_m.
	tmCommitted := false
	if m.tmPrepared {
		if m.tmDecided {
			if err := m.commitTm(); err != nil {
				return &m.report, err
			}
			tmCommitted = true
		} else {
			m.abortTm()
		}
	}

	// 2. Terminate source transactions parked in validation waits: their
	// verdicts may never arrive (destination crash). They abort and their
	// clients retry. This also poisons the gate, so transactions reaching
	// validation after this sweep abort instead of parking.
	if m.gate != nil {
		m.gate.abortWaiters(fmt.Errorf("%w: migration recovery", base.ErrMigrationAbort))
	}

	// 3. Resolve residual prepared shadows to their source outcomes. A
	// source transaction still prepared is mid-decision at its coordinator;
	// wait briefly for the outcome rather than guessing (a shadow rolled
	// back against a source that then commits would lose the update on the
	// destination).
	if m.rep != nil {
		for _, xid := range m.rep.ResidualShadows() {
			entry, _ := m.src.CLOG().WaitDone(xid, residualResolveWait)
			switch entry.Status {
			case base.StatusCommitted:
				if err := m.rep.ResolveShadow(xid, true, entry.CommitTS); err != nil {
					return &m.report, err
				}
			default:
				// Aborted, or still prepared past the wait: the paper
				// terminates waiting source transactions first, so a
				// still-prepared source transaction here lost its
				// coordinator — roll the shadow back with it.
				if err := m.rep.ResolveShadow(xid, false, 0); err != nil {
					return &m.report, err
				}
			}
		}
	}

	if !tmCommitted {
		return m.rollback()
	}
	return m.completeAfterTm()
}

// rollback terminates the migration: no transactions were ever diverted, the
// source holds all updates, so the destination's partial copy is dropped.
func (m *Migration) rollback() (*Report, error) {
	if m.gate != nil {
		m.src.Manager().InstallGate(nil)
	}
	// Close the replayer before stopping the propagator: a jammed task
	// queue would otherwise leave the propagator blocked mid-enqueue and
	// Stop waiting on it forever.
	if m.rep != nil {
		m.rep.Close()
	}
	if m.prop != nil {
		m.prop.Stop()
	}
	if m.rep != nil {
		// Validate tasks that were queued when recovery swept the residual
		// shadows may have prepared more shadows since; with the stream cut
		// their outcomes can never arrive. The destination copy is being
		// dropped, so they all roll back — leaving them prepared would pin
		// the cluster snapshot horizon and wedge the next attempt's drain.
		for _, xid := range m.rep.ResidualShadows() {
			_ = m.rep.ResolveShadow(xid, false, 0)
		}
	}
	for _, n := range m.c.Nodes() {
		n.ReadThrough().Clear(m.shards...)
	}
	for _, id := range m.shards {
		m.dst.DropShard(id)
		m.src.SetPhase(id, node.PhaseOwned)
	}
	m.setPhase(PhaseRolledBack)
	return &m.report, nil
}

// completeAfterTm finishes a migration whose T_m committed: the destination
// already owns some latest updates, so the migration must go forward.
func (m *Migration) completeAfterTm() (*Report, error) {
	if m.prop == nil || m.prop.Err() != nil {
		// The propagation stream died with the failure; rebuild it before
		// driving forward, otherwise changes it lost never reach the
		// destination.
		if err := m.rebuildPipeline(); err != nil {
			return &m.report, err
		}
	}
	m.report.TmCTS = m.tmCTS
	for _, id := range m.shards {
		m.dst.SetPhase(id, node.PhaseDestActive)
		m.src.DivertSource(id, m.tmCTS)
	}
	for _, n := range m.c.Nodes() {
		n.ReadThrough().Clear(m.shards...)
	}
	m.setPhase(PhaseDual)
	if err := m.finishDual(m.tmCTS); err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, err
	}
	m.setPhase(PhaseCleanup)
	m.cleanupAfterSuccess()
	m.setPhase(PhaseDone)
	return &m.report, nil
}

// rebuildPipeline replaces a dead propagation stream during drive-forward
// recovery. The crash may have lost in-memory update queues and in-flight
// batches, so the new propagator re-tails the WAL from a position covering
// every transaction that could still need shipping: re-delivered
// transactions that already applied on the destination are rejected by
// first-updater-wins (their shadow aborts, state unchanged), which makes
// the re-propagation idempotent.
//
// The validation pipeline is not rebuilt: the gate was poisoned by the
// waiter sweep, so remaining pre-barrier source transactions that would
// need validation abort instead (the §3.7 "terminated" outcome). Active
// non-prepared source transactions on the migrating shards are aborted up
// front for the same reason — without a live validation path their commits
// could not be checked against destination writes.
func (m *Migration) rebuildPipeline() error {
	shardSet := make(map[base.ShardID]bool, len(m.shards))
	for _, id := range m.shards {
		shardSet[id] = true
	}
	for _, t := range m.src.Manager().ActiveTxns() {
		for _, s := range t.TouchedShards() {
			if shardSet[s] {
				// A prepared one is decided by its coordinator; step 3
				// resolved its shadow.
				_ = t.AbortUnprepared(fmt.Errorf("%w: migration recovery", base.ErrMigrationAbort))
				break
			}
		}
	}

	// Pin the WAL while the restart position is computed (same dance as
	// Run: the new propagator takes its own hold when it starts).
	release := m.src.AcquireWALHold(1)
	defer release()
	startLSN := m.src.WAL().FlushLSN() + 1
	if m.prop != nil {
		if c := m.prop.Consumed(); c+1 < startLSN {
			startLSN = c + 1
		}
		// The cursor can overshoot a transaction that committed on the
		// source while its early updates sat in a lost in-memory queue or
		// a failed ship batch: it is absent from ActiveTxns, so without
		// this floor the replacement stream would see only its tail
		// records plus the commit and apply a torn shadow. Restarting
		// below the floor is safe — re-delivered transactions are
		// rejected whole by first-updater-wins.
		if low := m.prop.PendingLowLSN(); low != 0 && low < startLSN {
			startLSN = low
		}
	}
	for _, t := range m.src.Manager().ActiveTxns() {
		if f := t.FirstLSN(); f != 0 && f < startLSN {
			startLSN = f
		}
	}

	oldProp, oldRep := m.prop, m.rep
	// No validation sink: verdicts have nowhere to go (the gate is
	// poisoned); re-validated shadows resolve through the commit/abort
	// records that follow in the WAL.
	m.rep = repl.NewReplayer(m.dst, m.opts.Workers, func(base.XID, error) {}, m.opts.Faults, m.opts.Recorder)
	m.prop = repl.StartPropagator(m.src, m.rep, repl.PropagatorConfig{
		Shards:         shardSet,
		SnapTS:         m.report.SnapTS,
		StartLSN:       startLSN,
		SpillThreshold: m.opts.SpillThreshold,
		SpillDir:       m.opts.SpillDir,
		GroupTxns:      m.opts.GroupTxns,
		GroupBytes:     m.opts.GroupBytes,
		GroupDelay:     m.opts.GroupDelay,
		Faults:         m.opts.Faults,
		Recorder:       m.opts.Recorder,
	})
	if oldRep != nil {
		oldRep.Close() // before Stop: releases an enqueue-blocked propagator
	}
	if oldProp != nil {
		oldProp.Stop()
	}
	if oldRep != nil {
		// Shadows the old replayer prepared after the recovery sweep are
		// invisible to the new stream (it re-applies under fresh shadows
		// that first-updater-wins then rejects), so resolve them here by
		// their source outcomes; a leftover prepared shadow would pin the
		// snapshot horizon and block the drain below.
		for _, xid := range oldRep.ResidualShadows() {
			entry, _ := m.src.CLOG().WaitDone(xid, residualResolveWait)
			if entry.Status == base.StatusCommitted {
				_ = oldRep.ResolveShadow(xid, true, entry.CommitTS)
			} else {
				_ = oldRep.ResolveShadow(xid, false, 0)
			}
		}
	}
	return nil
}
