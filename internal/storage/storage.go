// Package storage is the durable layer under a node: a segmented on-disk
// WAL behind the in-memory wal.Log, fuzzy per-shard checkpoint files, and
// the restart-from-disk loading primitives the cluster uses to recover a
// node. The design follows the fuzzy-checkpoint-plus-log school: writers
// are never blocked — a checkpoint pass picks a snapshot timestamp and a
// covered-LSN horizon such that every record at or below the horizon
// belongs to a transaction whose effects are visible at the snapshot, so
// "checkpoint + WAL tail from horizon+1" reconstructs the node exactly.
//
// Checkpoint files double as the migration initial-copy source: shipping a
// shard's checkpoint file moves the bulk transfer off live version chains,
// and the ordinary catch-up stream (which already starts from an LSN) covers
// the delta since the checkpoint's snapshot.
package storage

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"remus/internal/base"
	"remus/internal/node"
	"remus/internal/obs"
	"remus/internal/wal"
)

// Config configures a node's durable storage.
type Config struct {
	// Dir is the storage root. Empty disables durable storage entirely.
	Dir string
	// SegmentBytes is the WAL segment rotation threshold (default 1 MiB).
	SegmentBytes int64
	// PageBytes is the checkpoint page size (default 64 KiB).
	PageBytes int
}

// Enabled reports whether the config asks for durable storage.
func (c Config) Enabled() bool { return c.Dir != "" }

// NodeStorage is the durable storage of one node: its segment directory and
// checkpoint generations.
type NodeStorage struct {
	dir string
	cfg Config
	seg *SegmentWAL

	mu     sync.Mutex
	seq    uint64 // next checkpoint generation sequence
	latest *Checkpoint
	rec    obs.Recorder
}

// Open opens (creating if needed) a node's storage directory, recovering the
// segment list (with torn-tail truncation) and the latest valid checkpoint
// generation.
func Open(cfg Config) (*NodeStorage, error) {
	if !cfg.Enabled() {
		return nil, fmt.Errorf("storage: open with empty Dir")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("storage: open %s: %w", cfg.Dir, err)
	}
	removeTempFiles(cfg.Dir)
	seg, err := OpenSegmentWAL(cfg.Dir, cfg.SegmentBytes)
	if err != nil {
		return nil, err
	}
	s := &NodeStorage{dir: cfg.Dir, cfg: cfg, seg: seg}
	ck, ok, err := loadLatestCheckpoint(cfg.Dir)
	if err != nil {
		return nil, err
	}
	if ok {
		s.latest = &ck
		s.seq = ck.Seq + 1
		seg.SetCovered(ck.Covered)
		// All segments at or below the horizon may already be retired; make
		// sure new appends resume past it.
		seg.ensureNext(ck.Covered + 1)
	}
	return s, nil
}

// removeTempFiles deletes leftovers of checkpoint writes interrupted by a
// crash before their rename.
func removeTempFiles(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}

// dirSynced, when set, observes every directory fsync (tests).
var dirSynced func(dir string)

// syncDir fsyncs dir: POSIX promises that the creations and renames of its
// entries survive a crash only after that.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = syncClose(d)
	if dirSynced != nil {
		dirSynced(dir)
	}
	return err
}

// SetRecorder wires metrics.
func (s *NodeStorage) SetRecorder(r obs.Recorder) {
	s.mu.Lock()
	s.rec = r
	s.mu.Unlock()
}

// Dir returns the storage root.
func (s *NodeStorage) Dir() string { return s.dir }

// WAL returns the segment backend (exposed for tests and benches).
func (s *NodeStorage) WAL() *SegmentWAL { return s.seg }

// NextLSN returns the LSN after the newest durable record, accounting for
// the checkpoint horizon when segments were retired.
func (s *NodeStorage) NextLSN() wal.LSN { return s.seg.NextLSN() }

// ReadWALFrom returns all durable records with LSN >= from.
func (s *NodeStorage) ReadWALFrom(from wal.LSN) ([]wal.Record, error) {
	return s.seg.ReadFrom(from)
}

// Latest returns the newest valid checkpoint generation.
func (s *NodeStorage) Latest() (Checkpoint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.latest == nil {
		return Checkpoint{}, false
	}
	return *s.latest, true
}

// Attach wires the durable backend behind the node's in-memory WAL. Every
// later append is written through and Sync points become real fsyncs. Call
// after recovery has replayed the tail (replay appends are deliberately
// memory-only: their originals are already on disk).
func (s *NodeStorage) Attach(n *node.Node) {
	n.WAL().AttachBackend(s.seg)
}

// Checkpoint writes one fuzzy checkpoint generation covering every shard the
// node currently owns, then retires WAL segments the generation covers.
//
// Ordering is load-bearing: the covered horizon is computed from the flush
// LSN and the active-transaction floor BEFORE the snapshot timestamp is
// taken. Any transaction fully logged at or below the horizon committed (or
// aborted) before the snapshot timestamp was issued, so the shard scans at
// snapTS include its effects; conversely every transaction whose commit
// lands after snapTS has all its records above the horizon and is re-applied
// from the WAL tail on recovery. Writers are never blocked: the scans are
// ordinary snapshot reads.
func (s *NodeStorage) Checkpoint(n *node.Node) (Checkpoint, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	covered := n.WAL().FlushLSN()
	for _, t := range n.Manager().ActiveTxns() {
		if f := t.FirstLSN(); f != 0 && f-1 < covered {
			covered = f - 1
		}
	}
	snapTS := n.Oracle().StartTS()

	ck := Checkpoint{
		Seq:     s.seq,
		SnapTS:  snapTS,
		Covered: covered,
		Shards:  map[base.ShardID]ShardCheckpoint{},
	}
	for _, id := range n.Shards() {
		store, table, ok := n.StoreAndTable(id)
		if !ok {
			continue
		}
		sc := ShardCheckpoint{
			Seq: ck.Seq, Shard: id, Table: table,
			SnapTS: snapTS, Covered: covered,
		}
		written, err := writeShardCheckpoint(s.dir, sc, s.cfg.PageBytes, func(emit func(base.Key, base.Value)) error {
			return store.SnapshotScan(snapTS, func(k base.Key, v base.Value) bool {
				emit(k, v)
				return true
			})
		})
		if err != nil {
			return Checkpoint{}, err
		}
		ck.Shards[id] = written
	}
	if err := writeManifest(s.dir, ck); err != nil {
		return Checkpoint{}, err
	}

	prevSeq := uint64(0)
	if s.latest != nil {
		prevSeq = s.latest.Seq
	}
	s.latest = &ck
	s.seq = ck.Seq + 1
	s.seg.SetCovered(covered)
	s.seg.Retire(covered)
	// Keep the previous generation as the fallback; drop anything older.
	pruneCheckpoints(s.dir, prevSeq)

	if s.rec != nil {
		var tuples, bytes uint64
		for _, sc := range ck.Shards {
			tuples += sc.Tuples
			bytes += sc.Bytes
		}
		s.rec.Add(obs.CtrCkptPasses, 1)
		s.rec.Add(obs.CtrCkptTuples, tuples)
		s.rec.Add(obs.CtrCkptBytes, bytes)
	}
	return ck, nil
}

// Close flushes and closes the segment backend. Kill-style crashes simply
// skip this.
func (s *NodeStorage) Close() error {
	return s.seg.Close()
}
