package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/fault"
	"remus/internal/node"
	"remus/internal/obs"
	"remus/internal/repl"
	"remus/internal/shard"
	"remus/internal/storage"
	"remus/internal/txn"
)

// Phase is a migration's position in the §3.1 pipeline (Figure 2).
type Phase int32

const (
	// PhasePlanned: created, not started.
	PhasePlanned Phase = iota
	// PhaseSnapshot: streaming the MVCC snapshot to the destination (§3.2).
	PhaseSnapshot
	// PhaseAsync: asynchronous update propagation / catch-up (§3.3).
	PhaseAsync
	// PhaseModeChange: sync barrier set; waiting out TS_unsync and
	// LSN_unsync (§3.4).
	PhaseModeChange
	// PhaseDiversion: executing T_m under cache-read-through (§3.5.1).
	PhaseDiversion
	// PhaseDual: unidirectional dual execution until source transactions
	// drain (§3.5).
	PhaseDual
	// PhaseCleanup: retiring the source shard.
	PhaseCleanup
	// PhaseDone: migration complete.
	PhaseDone
	// PhaseFailed: stopped by a failure; Recover decides rollback/continue.
	PhaseFailed
	// PhaseRolledBack: recovery terminated the migration and cleaned up.
	PhaseRolledBack
)

func (p Phase) String() string {
	switch p {
	case PhasePlanned:
		return "planned"
	case PhaseSnapshot:
		return "snapshot-copy"
	case PhaseAsync:
		return "async-propagation"
	case PhaseModeChange:
		return "mode-change"
	case PhaseDiversion:
		return "ordered-diversion"
	case PhaseDual:
		return "dual-execution"
	case PhaseCleanup:
		return "cleanup"
	case PhaseDone:
		return "done"
	case PhaseFailed:
		return "failed"
	case PhaseRolledBack:
		return "rolled-back"
	default:
		return fmt.Sprintf("phase(%d)", int32(p))
	}
}

// Options tunes migrations.
type Options struct {
	// Workers is the destination's parallel-apply width (the paper uses 18
	// apply threads; §4.1).
	Workers int
	// CatchUpThreshold is the propagation lag (records) below which the
	// mode-change phase starts.
	CatchUpThreshold uint64
	// BatchBytes sizes snapshot-copy network batches.
	BatchBytes int
	// SpillThreshold is the per-transaction record count before the update
	// cache queue spills to disk; zero disables spilling.
	SpillThreshold int
	// SpillDir holds spill files ("" = os.TempDir).
	SpillDir string
	// GroupTxns caps the committed transactions the propagator's group
	// shipper coalesces into one network message; 1 ships per transaction
	// (the ungrouped protocol), 0 takes the default.
	GroupTxns int
	// GroupBytes flushes a ship group early at this payload size (0 =
	// propagator default).
	GroupBytes int
	// GroupDelay bounds a ship group's age while the WAL stays busy (0 =
	// propagator default; an idle WAL always flushes immediately).
	GroupDelay time.Duration
	// ValidationTimeout bounds a synchronized source transaction's wait for
	// its validation verdict.
	ValidationTimeout time.Duration
	// PhaseTimeout bounds catch-up, mode-change and drain waits.
	PhaseTimeout time.Duration
	// Faults, if non-nil, is the failpoint registry: the driver evaluates
	// the fault.Site* sites at every phase transition, the T_m 2PC
	// boundary, each shipped WAL batch and each snapshot-copy chunk, and an
	// armed action there can crash nodes, inject errors or pause (§3.7
	// crash injection).
	Faults *fault.Registry
	// Retry is the controller's recovery policy for MigrateWithRecovery.
	Retry RetryPolicy
	// Recorder, if non-nil, receives phase transitions (with GTS
	// timestamps), validation waits and migration counters.
	Recorder obs.Recorder
}

// DefaultOptions mirrors the paper's setup at laptop scale.
func DefaultOptions() Options {
	return Options{
		Workers:           18,
		CatchUpThreshold:  32,
		BatchBytes:        256 << 10,
		SpillThreshold:    1 << 14,
		GroupTxns:         32,
		GroupBytes:        64 << 10,
		GroupDelay:        500 * time.Microsecond,
		ValidationTimeout: 30 * time.Second,
		PhaseTimeout:      60 * time.Second,
	}
}

// Report summarizes one migration.
type Report struct {
	Shards   []base.ShardID
	Source   base.NodeID
	Dest     base.NodeID
	SnapTS   base.Timestamp
	TmCTS    base.Timestamp
	Snapshot repl.SnapshotStats
	// InitialCopy is how phase 1 moved the bulk data: "live" (version-chain
	// scan) or "ckpt" (checkpoint-file shipping).
	InitialCopy string

	ShippedTxns    uint64
	ShippedRecords uint64
	SpilledTxns    uint64
	Validations    uint64
	Conflicts      uint64
	UnsyncTxns     int
	DrainedTxns    int

	SnapshotDuration   time.Duration
	CatchupDuration    time.Duration
	ModeChangeDuration time.Duration
	DiversionDuration  time.Duration
	DualDuration       time.Duration
	TotalDuration      time.Duration
}

// Migration is one Remus migration of a shard group (collocated shards
// migrate together, §3.8) from one source node to one destination node.
type Migration struct {
	c      *cluster.Cluster
	opts   Options
	shards []base.ShardID
	src    *node.Node
	dst    *node.Node

	phase atomic.Int32

	gate *moccGate
	rep  *repl.Replayer
	prop *repl.Propagator

	// T_m recovery state (the coordinator's 2PC log).
	tmParts    []*txn.Txn
	tmPrepared bool
	tmDecided  bool
	tmCTS      base.Timestamp

	report Report
}

// Controller is the migration controller of the control plane (§2.1).
type Controller struct {
	c    *cluster.Cluster
	opts Options

	mu sync.Mutex // serializes migrations (the paper runs them consecutively)
}

// NewController returns a controller over the cluster.
func NewController(c *cluster.Cluster, opts Options) *Controller {
	if opts.Workers == 0 {
		opts.Workers = DefaultOptions().Workers
	}
	if opts.CatchUpThreshold == 0 {
		opts.CatchUpThreshold = DefaultOptions().CatchUpThreshold
	}
	if opts.BatchBytes == 0 {
		opts.BatchBytes = DefaultOptions().BatchBytes
	}
	if opts.GroupTxns == 0 {
		opts.GroupTxns = DefaultOptions().GroupTxns
	}
	if opts.ValidationTimeout == 0 {
		opts.ValidationTimeout = DefaultOptions().ValidationTimeout
	}
	if opts.PhaseTimeout == 0 {
		opts.PhaseTimeout = DefaultOptions().PhaseTimeout
	}
	return &Controller{c: c, opts: opts}
}

// Plan validates and builds (but does not start) a migration of the shard
// group to dstID. Every shard must currently live on the same source node.
func (ct *Controller) Plan(shards []base.ShardID, dstID base.NodeID) (*Migration, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("core: empty shard group")
	}
	dst := ct.c.Node(dstID)
	if dst == nil {
		return nil, fmt.Errorf("core: unknown destination %v", dstID)
	}
	var srcID base.NodeID = base.NoNode
	for _, id := range shards {
		owner, err := ct.c.OwnerOf(id)
		if err != nil {
			return nil, fmt.Errorf("core: shard %v: %w", id, err)
		}
		if srcID == base.NoNode {
			srcID = owner
		} else if owner != srcID {
			return nil, fmt.Errorf("core: shard group spans %v and %v", srcID, owner)
		}
	}
	if srcID == dstID {
		return nil, fmt.Errorf("core: source and destination are both %v", srcID)
	}
	src := ct.c.Node(srcID)
	if src == nil {
		return nil, fmt.Errorf("core: unknown source %v", srcID)
	}
	m := &Migration{c: ct.c, opts: ct.opts, shards: shards, src: src, dst: dst}
	m.report.Shards = shards
	m.report.Source = srcID
	m.report.Dest = dstID
	return m, nil
}

// Migrate plans and runs one migration end to end.
func (ct *Controller) Migrate(shards []base.ShardID, dstID base.NodeID) (*Report, error) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	m, err := ct.Plan(shards, dstID)
	if err != nil {
		return nil, err
	}
	return m.Run()
}

// Phase returns the migration's current phase.
func (m *Migration) Phase() Phase { return Phase(m.phase.Load()) }

func (m *Migration) setPhase(p Phase) {
	prev := Phase(m.phase.Swap(int32(p)))
	if r := m.opts.Recorder; r != nil {
		r.Event(obs.Event{
			Kind: obs.EvPhase, Phase: p.String(), From: prev.String(),
			GTS: m.src.Oracle().Now(), Node: m.src.ID(),
		})
	}
}

// Report returns the (possibly partial) migration report.
func (m *Migration) Report() Report { return m.report }

// failpoint evaluates a registered fault site; an injected error stops the
// driver there with the migration marked failed (Recover decides the rest).
func (m *Migration) failpoint(site fault.Site) error {
	if err := m.opts.Faults.Eval(site); err != nil {
		m.setPhase(PhaseFailed)
		return fmt.Errorf("core: %w", err)
	}
	return nil
}

// Run drives the migration through all four phases of Figure 2.
func (m *Migration) Run() (*Report, error) {
	start := time.Now()
	defer func() { m.report.TotalDuration = time.Since(start) }()

	// ------------------------------------------------------------------
	// Phase 1: snapshot copying (§3.2).
	m.setPhase(PhaseSnapshot)
	phaseStart := time.Now()
	if err := m.failpoint(fault.SiteBeforeSnapshot); err != nil {
		return &m.report, err
	}

	// The propagation start position must cover every change of every
	// transaction that may commit after the snapshot timestamp: the oldest
	// first-LSN among currently active source transactions. A temporary WAL
	// hold pins the whole log while the position is computed and until the
	// propagator (which takes its own hold) starts — otherwise a concurrent
	// checkpoint could truncate the records between here and phase 2.
	releaseTmpHold := m.src.AcquireWALHold(1)
	defer releaseTmpHold()
	startLSN := m.src.WAL().FlushLSN() + 1
	for _, t := range m.src.Manager().ActiveTxns() {
		if f := t.FirstLSN(); f != 0 && f < startLSN {
			startLSN = f
		}
	}
	snapTS := m.src.Oracle().StartTS()

	// When the source has a durable checkpoint generation covering the whole
	// shard group, phase 1 ships the checkpoint files instead of scanning
	// live version chains: the copy reads sequential pages from disk and the
	// catch-up stream replays everything after the checkpoint's horizon. The
	// in-memory WAL must still reach back to that horizon (it does unless a
	// later checkpoint truncated it — the generation's own retirement keeps
	// covered+1 alive, and the hold above pins it for the propagator
	// handoff). Otherwise — no storage, no generation, partial coverage, or
	// a truncated log — the live path below runs byte-identically to a
	// cluster without storage.
	ckShip, useCkpt := m.checkpointForCopy()
	if useCkpt {
		snapTS = ckShip.SnapTS
		startLSN = ckShip.Covered + 1
		m.report.InitialCopy = "ckpt"
	} else {
		m.report.InitialCopy = "live"
	}
	m.report.SnapTS = snapTS

	for _, id := range m.shards {
		table, ok := m.src.TableOf(id)
		if !ok {
			return &m.report, fmt.Errorf("core: shard %v not on source %v", id, m.src.ID())
		}
		m.dst.AddShard(id, table, node.PhaseDest)
	}
	// Collocated shards copy in parallel (§3.8).
	var wg sync.WaitGroup
	var copyMu sync.Mutex
	var copyErr error
	for _, id := range m.shards {
		wg.Add(1)
		go func(id base.ShardID) {
			defer wg.Done()
			var stats repl.SnapshotStats
			var err error
			if useCkpt {
				stats, err = repl.CopyFromCheckpoint(m.src, m.dst, ckShip.Shards[id], m.opts.BatchBytes, m.opts.Faults, m.opts.Recorder)
			} else {
				stats, err = repl.CopySnapshot(m.src, m.dst, id, snapTS, m.opts.BatchBytes, m.opts.Faults, m.opts.Recorder)
			}
			copyMu.Lock()
			defer copyMu.Unlock()
			m.report.Snapshot.Tuples += stats.Tuples
			m.report.Snapshot.Bytes += stats.Bytes
			if err != nil && copyErr == nil {
				copyErr = err
			}
		}(id)
	}
	wg.Wait()
	m.report.SnapshotDuration = time.Since(phaseStart)
	if copyErr != nil {
		m.setPhase(PhaseFailed)
		return &m.report, copyErr
	}
	if err := m.failpoint(fault.SiteAfterSnapshot); err != nil {
		return &m.report, err
	}

	// ------------------------------------------------------------------
	// Phase 2: asynchronous update propagation (§3.3).
	m.setPhase(PhaseAsync)
	phaseStart = time.Now()
	shardSet := make(map[base.ShardID]bool, len(m.shards))
	for _, id := range m.shards {
		shardSet[id] = true
	}
	m.gate = newMOCCGate(m.shards, m.opts.ValidationTimeout, m.opts.Recorder)
	m.rep = repl.NewReplayer(m.dst, m.opts.Workers, m.gate.sink, m.opts.Faults, m.opts.Recorder)
	m.prop = repl.StartPropagator(m.src, m.rep, repl.PropagatorConfig{
		Shards:         shardSet,
		SnapTS:         snapTS,
		StartLSN:       startLSN,
		SpillThreshold: m.opts.SpillThreshold,
		SpillDir:       m.opts.SpillDir,
		GroupTxns:      m.opts.GroupTxns,
		GroupBytes:     m.opts.GroupBytes,
		GroupDelay:     m.opts.GroupDelay,
		Faults:         m.opts.Faults,
		Recorder:       m.opts.Recorder,
	})
	releaseTmpHold() // the propagator now holds its own pin
	if err := m.prop.WaitCaughtUp(m.opts.CatchUpThreshold, m.opts.PhaseTimeout); err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, fmt.Errorf("core: catch-up: %w", err)
	}
	m.report.CatchupDuration = time.Since(phaseStart)
	if err := m.failpoint(fault.SiteAfterCatchup); err != nil {
		return &m.report, err
	}

	// ------------------------------------------------------------------
	// Phase 3: propagation mode changing (§3.4). Setting the gate is the
	// sync barrier; the transactions already inside their commit path form
	// TS_unsync and commit without validation.
	m.setPhase(PhaseModeChange)
	phaseStart = time.Now()
	unsync := m.src.Manager().InstallGate(m.gate)
	m.report.UnsyncTxns = len(unsync)
	if r := m.opts.Recorder; r != nil {
		r.Add(obs.CtrUnsyncTxns, uint64(len(unsync)))
	}
	// waitTxns returns only after each TS_unsync member appended its
	// outcome record, so the FlushLSN capture below bounds every change.
	if err := waitTxns(unsync, m.opts.PhaseTimeout); err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, fmt.Errorf("core: TS_unsync drain: %w", err)
	}
	lsnUnsync := m.src.WAL().FlushLSN()
	if err := m.prop.WaitApplied(lsnUnsync, m.opts.PhaseTimeout); err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, fmt.Errorf("core: LSN_unsync apply: %w", err)
	}
	m.report.ModeChangeDuration = time.Since(phaseStart)
	if err := m.failpoint(fault.SiteBeforeTm); err != nil {
		return &m.report, err
	}

	// ------------------------------------------------------------------
	// Phase 4a: ordered diversion (§3.5.1). Mark cache-read-through before
	// T_m, activate the destination, run T_m over every node's shard map,
	// divert the source, clear read-through.
	m.setPhase(PhaseDiversion)
	phaseStart = time.Now()
	for _, n := range m.c.Nodes() {
		n.ReadThrough().Mark(m.shards...)
	}
	for _, id := range m.shards {
		m.dst.SetPhase(id, node.PhaseDestActive)
	}
	ctsTm, err := m.runTm()
	if err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, err
	}
	m.report.TmCTS = ctsTm
	for _, id := range m.shards {
		m.src.DivertSource(id, ctsTm)
	}
	for _, n := range m.c.Nodes() {
		n.ReadThrough().Clear(m.shards...)
	}
	m.report.DiversionDuration = time.Since(phaseStart)

	// ------------------------------------------------------------------
	// Phase 4b: dual execution (§3.5.2) until the source transactions that
	// started before the barrier run to completion.
	m.setPhase(PhaseDual)
	phaseStart = time.Now()
	if err := m.finishDual(ctsTm); err != nil {
		m.setPhase(PhaseFailed)
		return &m.report, err
	}
	m.report.DualDuration = time.Since(phaseStart)
	if err := m.failpoint(fault.SiteBeforeCleanup); err != nil {
		return &m.report, err
	}

	// ------------------------------------------------------------------
	// Cleanup: the destination owns the shards; retire the source copy.
	m.setPhase(PhaseCleanup)
	m.cleanupAfterSuccess()
	m.setPhase(PhaseDone)
	return &m.report, nil
}

// checkpointForCopy decides whether phase 1 can ship checkpoint files: the
// source must have durable storage with a valid generation that contains a
// file for every shard in the group, and the in-memory WAL must still hold
// the record after the generation's covered horizon so the catch-up stream
// can start there. Called under the temporary whole-log hold, so no
// checkpoint can truncate the log between this check and propagator start.
func (m *Migration) checkpointForCopy() (storage.Checkpoint, bool) {
	st := m.c.Storage(m.src.ID())
	if st == nil {
		return storage.Checkpoint{}, false
	}
	ck, ok := st.Latest()
	if !ok || !ck.Covers(m.shards) {
		return storage.Checkpoint{}, false
	}
	if m.src.WAL().FirstLSN() > ck.Covered+1 {
		return storage.Checkpoint{}, false
	}
	return ck, true
}

// finishDual waits out the dual-execution phase and stops replication. Two
// conditions must hold before the source copy can retire: every transaction
// on the source with a pre-barrier snapshot has completed, and no
// transaction anywhere in the cluster still runs on a pre-barrier snapshot
// (a distributed transaction that began before T_m on another coordinator
// creates its source participant only when it first touches the migrating
// shard, so the source-local check alone would race).
func (m *Migration) finishDual(ctsTm base.Timestamp) error {
	deadline := time.Now().Add(m.opts.PhaseTimeout)
	for {
		drain := m.src.Manager().TxnsBelow(ctsTm)
		if len(drain) == 0 {
			if m.c.OldestActiveTS() >= ctsTm {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("core: dual-execution drain (cluster horizon): %w", base.ErrTimeout)
			}
			time.Sleep(time.Millisecond)
			continue
		}
		m.report.DrainedTxns += len(drain)
		if r := m.opts.Recorder; r != nil {
			r.Add(obs.CtrDrainedTxns, uint64(len(drain)))
		}
		remaining := time.Until(deadline)
		if remaining <= 0 {
			return fmt.Errorf("core: dual-execution drain: %w", base.ErrTimeout)
		}
		if err := waitTxns(drain, remaining); err != nil {
			return fmt.Errorf("core: dual-execution drain: %w", err)
		}
	}
	lsnEnd := m.src.WAL().FlushLSN()
	if err := m.prop.WaitApplied(lsnEnd, m.opts.PhaseTimeout); err != nil {
		return fmt.Errorf("core: final apply: %w", err)
	}
	return nil
}

// cleanupAfterSuccess retires replication and the source shards.
func (m *Migration) cleanupAfterSuccess() {
	m.src.Manager().InstallGate(nil)
	m.prop.Stop()
	m.rep.Close()
	m.report.ShippedTxns = m.prop.ShippedTxns()
	m.report.ShippedRecords = m.prop.ShippedRecords()
	m.report.SpilledTxns = m.prop.SpilledTxns()
	m.report.Validations = m.gate.Validations()
	m.report.Conflicts = m.rep.Conflicts()
	for _, id := range m.shards {
		m.src.DropShard(id)
		m.dst.SetPhase(id, node.PhaseOwned)
	}
}

// runTm executes the ordered-diversion transaction: one participant per
// node updates the local shard map row of every migrating shard; 2PC
// commits. The prepared map rows make routing transactions prepare-wait, so
// every transaction observes T_m's barrier consistently (§3.5.1).
func (m *Migration) runTm() (base.Timestamp, error) {
	nodes := m.c.Nodes()
	gid := m.src.Manager().NewGlobalID()
	startTS := m.src.Oracle().StartTS()
	m.tmParts = m.tmParts[:0]
	for _, n := range nodes {
		p := n.Manager().Begin(gid, startTS)
		m.tmParts = append(m.tmParts, p)
		for _, id := range m.shards {
			desc, err := m.descFor(id)
			if err != nil {
				m.abortTm()
				return 0, err
			}
			desc.Node = m.dst.ID()
			if err := n.WriteMapRow(p, desc); err != nil {
				m.abortTm()
				return 0, fmt.Errorf("core: T_m write on %v: %w", n.ID(), err)
			}
		}
	}
	var maxPrep base.Timestamp
	for _, p := range m.tmParts {
		ts, err := p.Prepare()
		if err != nil {
			m.abortTm()
			return 0, fmt.Errorf("core: T_m prepare: %w", err)
		}
		if ts > maxPrep {
			maxPrep = ts
		}
	}
	m.tmPrepared = true
	if err := m.failpoint(fault.SiteTmPrepared); err != nil {
		return 0, err
	}
	// The commit decision: recording tmCTS is the coordinator's commit log
	// entry — after this point recovery must commit T_m (§3.7).
	m.tmCTS = m.src.Oracle().CommitTS(maxPrep)
	m.tmDecided = true
	if err := m.failpoint(fault.SiteTmDecided); err != nil {
		return 0, err
	}
	if err := m.commitTm(); err != nil {
		return 0, err
	}
	if err := m.failpoint(fault.SiteTmCommitted); err != nil {
		return 0, err
	}
	return m.tmCTS, nil
}

// commitTm runs T_m's second phase. It tolerates already-finished
// participants so recovery can re-drive a commit that was interrupted
// half-way (CommitAt is then a no-op reporting ErrTxnFinished; prepared
// participants survive node crashes, so "finished" here means an earlier
// commit attempt reached that node).
func (m *Migration) commitTm() error {
	for _, p := range m.tmParts {
		if err := p.CommitAt(m.tmCTS); err != nil && !errors.Is(err, base.ErrTxnFinished) {
			return fmt.Errorf("core: T_m commit: %w", err)
		}
	}
	return nil
}

func (m *Migration) abortTm() {
	for _, p := range m.tmParts {
		_ = p.Abort()
	}
	m.tmParts = m.tmParts[:0]
	m.tmPrepared = false
}

// descFor rebuilds the shard's descriptor (table, hash range) from the
// catalog.
func (m *Migration) descFor(id base.ShardID) (shard.Desc, error) {
	tableID, ok := m.src.TableOf(id)
	if !ok {
		tableID, ok = m.dst.TableOf(id)
	}
	if !ok {
		return shard.Desc{}, fmt.Errorf("core: no table for %v", id)
	}
	tbl, ok := m.c.TableByID(tableID)
	if !ok {
		return shard.Desc{}, fmt.Errorf("core: unknown table %v", tableID)
	}
	idx := int(id - tbl.FirstShard)
	return shard.Desc{ID: id, Table: tbl.ID, Range: tbl.Range(idx), Node: m.src.ID()}, nil
}

// waitTxns blocks until every transaction reaches a terminal state.
func waitTxns(txns []*txn.Txn, timeout time.Duration) error {
	var deadline <-chan time.Time
	if timeout > 0 {
		tm := time.NewTimer(timeout)
		defer tm.Stop()
		deadline = tm.C
	}
	for _, t := range txns {
		select {
		case <-t.Done():
		case <-deadline:
			return fmt.Errorf("stuck transaction %v still %v after %v: %w", t.XID, t.State(), timeout, base.ErrTimeout)
		}
	}
	return nil
}
