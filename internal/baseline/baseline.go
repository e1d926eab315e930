// Package baseline implements the migration approaches Remus is evaluated
// against in §4.2, all over the same substrate (§2.3):
//
//   - lock-and-abort (Citus/LibrA style): iterative state copying; during
//     ownership transfer the migrating shards are locked, conflicting
//     writers are terminated, blocked writers abort when the transfer ends;
//   - wait-and-remaster (DynaMast style): iterative state copying; the
//     transfer suspends routing and waits for every ongoing transaction to
//     complete before remastering;
//   - Squall: pull migration over H-store-style shard locks — ownership
//     moves up front, chunks are pulled reactively and in the background,
//     source transactions touching migrated chunks abort.
//
// lock-and-abort and wait-and-remaster share Remus' snapshot copy, update
// propagation and parallel apply (§4.2: "adopt the same snapshot copying,
// update propagation, and parallel apply protocols as Remus").
package baseline

import (
	"fmt"
	"sync"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/node"
	"remus/internal/obs"
	"remus/internal/repl"
)

// Options tunes the push baselines.
type Options struct {
	// Workers is the destination parallel-apply width.
	Workers int
	// CatchUpThreshold is the propagation lag below which the ownership
	// transfer starts.
	CatchUpThreshold uint64
	// BatchBytes sizes snapshot-copy batches.
	BatchBytes int
	// PhaseTimeout bounds catch-up and transfer waits.
	PhaseTimeout time.Duration
	// Recorder, if non-nil, receives phase transitions, block events and
	// kill counters.
	Recorder obs.Recorder
}

// DefaultOptions mirrors core.DefaultOptions.
func DefaultOptions() Options {
	return Options{Workers: 18, CatchUpThreshold: 32, BatchBytes: 256 << 10, PhaseTimeout: 60 * time.Second}
}

// phase emits a phase-transition event when a recorder is installed.
func (o *Options) phase(name, from string, n *node.Node) {
	if o.Recorder != nil {
		o.Recorder.Event(obs.Event{
			Kind: obs.EvPhase, Phase: name, From: from,
			GTS: n.Oracle().Now(), Node: n.ID(),
		})
	}
}

func (o *Options) fill() {
	d := DefaultOptions()
	if o.Workers == 0 {
		o.Workers = d.Workers
	}
	if o.CatchUpThreshold == 0 {
		o.CatchUpThreshold = d.CatchUpThreshold
	}
	if o.BatchBytes == 0 {
		o.BatchBytes = d.BatchBytes
	}
	if o.PhaseTimeout == 0 {
		o.PhaseTimeout = d.PhaseTimeout
	}
}

// Report summarizes a baseline migration.
type Report struct {
	Shards []base.ShardID
	Source base.NodeID
	Dest   base.NodeID

	SnapshotTuples int
	ShippedTxns    uint64
	// AbortedTxns counts transactions the migration killed (lock-and-abort)
	// or invalidated (Squall source-side accesses).
	AbortedTxns int
	// TransferDuration is the ownership-transfer window (the downtime-ish
	// part: locks held / routing suspended).
	TransferDuration time.Duration
	TotalDuration    time.Duration
}

// pushState is the shared ISC (iterative state copying) machinery.
type pushState struct {
	c      *cluster.Cluster
	src    *node.Node
	dst    *node.Node
	shards []base.ShardID
	set    map[base.ShardID]bool
	opts   Options

	rep  *repl.Replayer
	prop *repl.Propagator
}

// startPush resolves endpoints and runs snapshot copy + async propagation up
// to catch-up (phases 1-2, shared with Remus).
func startPush(c *cluster.Cluster, shards []base.ShardID, dstID base.NodeID, opts Options, report *Report) (*pushState, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("baseline: empty shard group")
	}
	dst := c.Node(dstID)
	if dst == nil {
		return nil, fmt.Errorf("baseline: unknown destination %v", dstID)
	}
	var srcID base.NodeID = base.NoNode
	for _, id := range shards {
		owner, err := c.OwnerOf(id)
		if err != nil {
			return nil, err
		}
		if srcID == base.NoNode {
			srcID = owner
		} else if owner != srcID {
			return nil, fmt.Errorf("baseline: group spans %v and %v", srcID, owner)
		}
	}
	src := c.Node(srcID)
	if src == nil || srcID == dstID {
		return nil, fmt.Errorf("baseline: bad endpoints %v -> %v", srcID, dstID)
	}
	report.Shards = shards
	report.Source = srcID
	report.Dest = dstID

	st := &pushState{c: c, src: src, dst: dst, shards: shards, opts: opts,
		set: make(map[base.ShardID]bool, len(shards))}
	for _, id := range shards {
		st.set[id] = true
	}

	opts.phase("snapshot-copy", "planned", src)
	releaseTmpHold := src.AcquireWALHold(1) // pin until the propagator holds
	defer releaseTmpHold()
	startLSN := src.WAL().FlushLSN() + 1
	for _, t := range src.Manager().ActiveTxns() {
		if f := t.FirstLSN(); f != 0 && f < startLSN {
			startLSN = f
		}
	}
	snapTS := src.Oracle().StartTS()
	for _, id := range shards {
		table, ok := src.TableOf(id)
		if !ok {
			return nil, fmt.Errorf("baseline: shard %v not on %v", id, srcID)
		}
		dst.AddShard(id, table, node.PhaseDest)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var copyErr error
	for _, id := range shards {
		wg.Add(1)
		go func(id base.ShardID) {
			defer wg.Done()
			stats, err := repl.CopySnapshot(src, dst, id, snapTS, opts.BatchBytes, nil, opts.Recorder)
			mu.Lock()
			report.SnapshotTuples += stats.Tuples
			if err != nil && copyErr == nil {
				copyErr = err
			}
			mu.Unlock()
		}(id)
	}
	wg.Wait()
	if copyErr != nil {
		return nil, copyErr
	}

	opts.phase("async-propagation", "snapshot-copy", src)
	st.rep = repl.NewReplayer(dst, opts.Workers, nil, nil, opts.Recorder)
	st.prop = repl.StartPropagator(src, st.rep, repl.PropagatorConfig{
		Shards: st.set, SnapTS: snapTS, StartLSN: startLSN,
		Recorder: opts.Recorder,
	})
	if err := st.prop.WaitCaughtUp(opts.CatchUpThreshold, opts.PhaseTimeout); err != nil {
		st.stop()
		return nil, fmt.Errorf("baseline: catch-up: %w", err)
	}
	return st, nil
}

// finalSync replays the remaining updates through the given WAL position.
func (st *pushState) finalSync() error {
	return st.prop.WaitApplied(st.src.WAL().FlushLSN(), st.opts.PhaseTimeout)
}

// finish retires replication and the source shards after ownership moved.
func (st *pushState) finish(report *Report) {
	report.ShippedTxns = st.prop.ShippedTxns()
	st.stop()
	for _, id := range st.shards {
		st.src.DropShard(id)
		st.dst.SetPhase(id, node.PhaseOwned)
	}
}

func (st *pushState) stop() {
	st.prop.Stop()
	st.rep.Close()
}
