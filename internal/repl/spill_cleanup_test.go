package repl

import (
	"fmt"
	"os"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/mvcc"
)

func listDir(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	return names
}

// TestSpillDirEmptyAfterClose asserts spill files never outlive the
// propagator: shipped queues delete their file on take, and queues still
// open (uncommitted transactions) are swept — file included — when the
// propagator stops.
func TestSpillDirEmptyAfterClose(t *testing.T) {
	p := newPair(t)
	spillDir := t.TempDir()
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:         map[base.ShardID]bool{testShard: true},
		SnapTS:         snapTS,
		StartLSN:       startLSN,
		SpillThreshold: 8,
		SpillDir:       spillDir,
	})

	// A committed big transaction: its queue spills, ships, and the spill
	// file is removed on take.
	big := p.src.Manager().Begin(0, 0)
	for i := 0; i < 64; i++ {
		if err := p.src.Write(big, testShard, mvcc.WriteInsert, base.Key(fmt.Sprintf("s%03d", i)), base.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := big.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := prop.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if prop.SpilledTxns() == 0 {
		t.Fatal("test did not exercise spilling")
	}

	// An open (never committed) big transaction: its queue spills and is
	// still live when the propagator stops; the exit sweep must remove the
	// file.
	open := p.src.Manager().Begin(0, 0)
	for i := 0; i < 64; i++ {
		if err := p.src.Write(open, testShard, mvcc.WriteInsert, base.Key(fmt.Sprintf("o%03d", i)), base.Value("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Wait until the propagator has extracted (and spilled) the open txn's
	// records.
	deadline := time.Now().Add(5 * time.Second)
	for len(listDir(t, spillDir)) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("open transaction never spilled")
		}
		time.Sleep(time.Millisecond)
	}

	prop.Stop()
	rep.Close()
	if left := listDir(t, spillDir); len(left) != 0 {
		t.Fatalf("spill dir not empty after propagator close: %v", left)
	}
	_ = open.Abort()
}
