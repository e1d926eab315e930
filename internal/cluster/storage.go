package cluster

import (
	"fmt"
	"path/filepath"
	"sort"

	"remus/internal/base"
	"remus/internal/node"
	"remus/internal/repl"
	"remus/internal/storage"
	"remus/internal/wal"
)

// Durable storage bootstrap and restart-from-disk recovery. When Config.
// Storage.Dir is set, every node added to the cluster opens a per-node
// storage directory; if the directory already holds a checkpoint or WAL
// segments, the node's state is rebuilt from disk BEFORE the durable
// backend is attached:
//
//  1. load the latest valid checkpoint generation and install its tuples
//     as bootstrap versions;
//  2. read the WAL tail (records above the checkpoint's covered horizon),
//     group it by transaction, and re-apply every transaction whose commit
//     record is in the tail with a commit timestamp above the checkpoint
//     snapshot — in commit-record order, through the ordinary replayer;
//  3. advance the node's identifier counters and timestamp oracle (and the
//     shared GTS sequencer) past everything recovered, so the restarted
//     process cannot re-issue identifiers or timestamps that exist on disk;
//  4. attach the segment backend, so new appends are durable again.
//
// Replay appends from step 2 deliberately stay in-memory only: their
// originals are already durable, and re-logging them would duplicate the
// tail on every restart. The resulting LSN gap on disk is harmless — the
// segment reader only requires monotonically increasing LSNs.
//
// Shard-map records (the node-local catalog shard) are skipped during
// replay: placements are re-seeded by the control plane when tables are
// re-registered after a restart. Durable catalog state is future work.

// recoveryWorkers bounds replayer parallelism during restart.
const recoveryWorkers = 4

// setupStorage opens (and, when the directory holds data, recovers) durable
// storage for a freshly added node. AddNode has no error return; a durable
// storage failure means the node's disk is unusable, which is fatal.
func (c *Cluster) setupStorage(n *node.Node) {
	cfg := c.cfg.Storage
	cfg.Dir = filepath.Join(cfg.Dir, fmt.Sprintf("node-%d", n.ID()))
	st, err := storage.Open(cfg)
	if err != nil {
		panic(fmt.Sprintf("cluster: storage for %v: %v", n.ID(), err))
	}
	if c.cfg.Recorder != nil {
		st.SetRecorder(c.cfg.Recorder)
	}
	if err := c.recoverNode(n, st); err != nil {
		panic(fmt.Sprintf("cluster: recover %v from %s: %v", n.ID(), cfg.Dir, err))
	}
	st.Attach(n)
	c.mu.Lock()
	c.storage[n.ID()] = st
	c.mu.Unlock()
}

// Storage returns a node's durable storage, nil when storage is disabled.
func (c *Cluster) Storage(id base.NodeID) *storage.NodeStorage {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.storage[id]
}

// CheckpointNode writes a fuzzy checkpoint generation for the node and
// retires WAL segments it covers.
func (c *Cluster) CheckpointNode(id base.NodeID) (storage.Checkpoint, error) {
	st := c.Storage(id)
	if st == nil {
		return storage.Checkpoint{}, fmt.Errorf("cluster: node %v has no durable storage", id)
	}
	return st.Checkpoint(c.Node(id))
}

// CloseStorage flushes and closes every node's durable storage (graceful
// shutdown; kill-style crash tests simply skip this).
func (c *Cluster) CloseStorage() {
	c.mu.RLock()
	stores := make([]*storage.NodeStorage, 0, len(c.storage))
	for _, st := range c.storage {
		stores = append(stores, st)
	}
	c.mu.RUnlock()
	for _, st := range stores {
		st.Close()
	}
}

// recoverNode rebuilds a node's state from its storage directory. A fresh
// directory (no checkpoint, no WAL) is a no-op.
func (c *Cluster) recoverNode(n *node.Node, st *storage.NodeStorage) error {
	ckpt, hasCkpt := st.Latest()
	from := wal.LSN(1)
	maxTS := base.TsZero
	if hasCkpt {
		from = ckpt.Covered + 1
		maxTS = ckpt.SnapTS
	}
	recs, err := st.ReadWALFrom(from)
	if err != nil {
		return err
	}
	if !hasCkpt && len(recs) == 0 {
		return nil
	}

	// Resume the LSN sequence after the durable tail before anything appends.
	n.WAL().ResetTo(st.NextLSN())

	if hasCkpt {
		shards := make([]storage.ShardCheckpoint, 0, len(ckpt.Shards))
		for _, sc := range ckpt.Shards {
			shards = append(shards, sc)
		}
		sort.Slice(shards, func(i, j int) bool { return shards[i].Shard < shards[j].Shard })
		for _, sc := range shards {
			store := n.AddShard(sc.Shard, sc.Table, node.PhaseOwned)
			var keys []base.Key
			var vals []base.Value
			err := storage.ReadShardCheckpoint(sc.Path, func(k base.Key, v base.Value) bool {
				keys = append(keys, k)
				vals = append(vals, v)
				return true
			})
			if err != nil {
				return err
			}
			store.InstallBootstrapBatch(keys, vals)
		}
	}

	// Group the WAL tail by transaction; collect committed transactions in
	// commit-record order (the order the replayer must respect).
	type rtxn struct {
		xid      base.XID
		gid      base.TxnID
		startTS  base.Timestamp
		commitTS base.Timestamp
		records  []wal.Record
	}
	open := make(map[base.XID][]wal.Record)
	var commits []rtxn
	var maxXID base.XID
	var maxSeq uint64
	for _, rec := range recs {
		if rec.XID > maxXID {
			maxXID = rec.XID
		}
		if rec.Txn != 0 {
			if seq := uint64(rec.Txn) & (1<<40 - 1); seq > maxSeq {
				maxSeq = seq
			}
		}
		switch {
		case rec.Type.IsChange():
			if rec.Shard == node.MapShardID {
				continue
			}
			open[rec.XID] = append(open[rec.XID], rec)
			if _, ok := n.Store(rec.Shard); !ok {
				n.AddShard(rec.Shard, rec.Table, node.PhaseOwned)
			}
		case rec.Type == wal.RecCommit || rec.Type == wal.RecCommitPrepared:
			records := open[rec.XID]
			delete(open, rec.XID)
			if rec.CommitTS > maxTS {
				maxTS = rec.CommitTS
			}
			if hasCkpt && rec.CommitTS <= ckpt.SnapTS {
				// Already visible in the checkpoint snapshot.
				continue
			}
			if len(records) == 0 {
				continue
			}
			commits = append(commits, rtxn{rec.XID, rec.Txn, rec.StartTS, rec.CommitTS, records})
		case rec.Type == wal.RecAbort || rec.Type == wal.RecRollbackPrepared:
			delete(open, rec.XID)
		}
	}
	// Transactions with changes but no durable outcome (crash mid-commit or
	// prepared without a decision) are dropped whole — the commit was never
	// acknowledged.

	// Identifier and clock advancement must precede replay: shadow
	// transactions allocate fresh XIDs, and their timestamps must not
	// collide with recovered ones.
	n.Manager().AdvanceIdentifiers(maxXID, maxSeq)
	n.Oracle().Observe(maxTS)
	if c.cfg.Scheme == GTS {
		if c.oracleHA != nil {
			c.oracleHA.AdvanceTo(maxTS)
		} else {
			c.gts.AdvanceTo(maxTS)
		}
	}

	if len(commits) > 0 {
		rep := repl.NewReplayer(n, recoveryWorkers, nil, nil, nil)
		for _, t := range commits {
			rep.SubmitApply(t.xid, t.gid, t.startTS, t.commitTS, t.records)
		}
		rep.Barrier()
		rep.Close()
	}
	return nil
}
