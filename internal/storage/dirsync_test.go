package storage

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"remus/internal/base"
	"remus/internal/node"
)

// dirSync is one directory fsync as the hook saw it: the directory and the
// names it held at that moment, so a test can tell the sync came after the
// creation or rename it is meant to make durable.
type dirSync struct {
	dir   string
	names []string
}

func (d dirSync) has(name string) bool {
	for _, n := range d.names {
		if n == name {
			return true
		}
	}
	return false
}

// recordDirSyncs installs the directory-sync hook for the rest of the test
// and returns a function that drains the syncs seen since its last call.
func recordDirSyncs(t *testing.T) func() []dirSync {
	t.Helper()
	var mu sync.Mutex
	var seen []dirSync
	dirSynced = func(dir string) {
		var names []string
		entries, _ := os.ReadDir(dir)
		for _, e := range entries {
			names = append(names, e.Name())
		}
		mu.Lock()
		seen = append(seen, dirSync{dir, names})
		mu.Unlock()
	}
	t.Cleanup(func() { dirSynced = nil })
	return func() []dirSync {
		mu.Lock()
		defer mu.Unlock()
		out := seen
		seen = nil
		return out
	}
}

// TestSegmentCreationSyncsDirAtNextSync: a new segment's name is made
// durable by the first Sync after it was created, not on the append path,
// and a Sync with no new segment does not touch the directory.
func TestSegmentCreationSyncsDirAtNextSync(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenSegmentWAL(dir, 64)
	if err != nil {
		t.Fatal(err)
	}
	synced := recordDirSyncs(t)
	big := rec(1, "k")
	big.Value = make(base.Value, 128) // fills the 64-byte segment in one record
	if err := s.Append(big); err != nil {
		t.Fatal(err)
	}
	if got := synced(); len(got) != 0 {
		t.Fatalf("segment creation synced the directory on the append path: %v", got)
	}
	checkSegmentSync(t, s, synced, segName(1))
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := synced(); len(got) != 0 {
		t.Fatalf("Sync without a new segment synced the directory: %v", got)
	}
	if err := s.Append(rec(2, "k2")); err != nil { // rotates past the full segment
		t.Fatal(err)
	}
	checkSegmentSync(t, s, synced, segName(2))
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkSegmentSync(t *testing.T, s *SegmentWAL, synced func() []dirSync, name string) {
	t.Helper()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	got := synced()
	if len(got) != 1 || got[0].dir != s.dir || !got[0].has(name) {
		t.Fatalf("Sync after creating %s: directory syncs %v, want one of %s holding it", name, got, s.dir)
	}
}

// TestCheckpointSyncsDirAfterManifest: a checkpoint syncs its directory once,
// after the manifest rename, which makes the shard files' renames durable
// too. Segments are retired on the strength of the manifest, so this sync
// must come before they are.
func TestCheckpointSyncsDirAfterManifest(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(Config{Dir: dir, SegmentBytes: 1 << 16})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	n := newTestNode(t)
	st.Attach(n)
	store := n.AddShard(1, 1, node.PhaseOwned)
	commitKV(t, n, store, "k", "v")
	synced := recordDirSyncs(t)
	ck, err := st.Checkpoint(n)
	if err != nil {
		t.Fatal(err)
	}
	got := synced()
	if len(got) != 1 || got[0].dir != dir {
		t.Fatalf("checkpoint directory syncs %v, want one of %s", got, dir)
	}
	for _, name := range []string{filepath.Base(ck.Shards[1].Path), doneName(ck.Seq)} {
		if !got[0].has(name) {
			t.Fatalf("directory sync %v came before the rename to %s", got[0].names, name)
		}
	}
}

// TestOracleLogSyncsDir: creating hwm.log and compacting it by rename each
// sync the oracle directory afterwards.
func TestOracleLogSyncsDir(t *testing.T) {
	dir := t.TempDir()
	synced := recordDirSyncs(t)
	s := openOracle(t, dir)
	got := synced()
	if len(got) != 1 || got[0].dir != dir || !got[0].has(oracleLogName) {
		t.Fatalf("creating %s: directory syncs %v, want one holding it", oracleLogName, got)
	}
	if err := s.Save(1, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.compact(); err != nil {
		t.Fatal(err)
	}
	got = synced()
	if len(got) != 1 || got[0].dir != dir {
		t.Fatalf("compaction: directory syncs %v, want one of %s", got, dir)
	}
	for _, name := range got[0].names {
		if strings.HasPrefix(name, ".tmp-") {
			t.Fatalf("compaction synced the directory before its rename: %v", got[0].names)
		}
	}
}
