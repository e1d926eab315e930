package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/mvcc"
)

// TestSpillReplayIdempotentAfterShipFault injects a ship failure in the
// middle of a spilled propagation stream: some transactions have already
// applied on the destination when the stream dies. A replacement stream
// restarted from the original LSN re-ships everything — including the
// transactions already applied — and must leave exactly one copy of each
// key: re-delivered transactions are rejected by first-updater-wins (their
// shadow hits the existing version and aborts), which is what makes restart
// from a conservative LSN safe during §3.7 recovery.
func TestSpillReplayIdempotentAfterShipFault(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}

	// The first two batches ship, the third dies in flight.
	reg := fault.NewRegistry(7)
	reg.Arm(fault.SiteShipBatch, fault.Action{Err: fault.ErrInjected, After: 2, Once: true})

	spillDir := t.TempDir()
	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:         map[base.ShardID]bool{testShard: true},
		SnapTS:         snapTS,
		StartLSN:       startLSN,
		SpillThreshold: 16, // every transaction below spills to disk
		SpillDir:       spillDir,
		Faults:         reg,
	})

	const txns, recs = 4, 20
	var lastCTS base.Timestamp
	for i := 0; i < txns; i++ {
		tx := p.src.Manager().Begin(0, 0)
		for j := 0; j < recs; j++ {
			key := base.Key(fmt.Sprintf("t%d-k%02d", i, j))
			if err := p.src.Write(tx, testShard, mvcc.WriteInsert, key, base.Value(fmt.Sprintf("v%d", i))); err != nil {
				t.Fatal(err)
			}
		}
		cts, err := tx.Commit()
		if err != nil {
			t.Fatal(err)
		}
		lastCTS = cts
	}

	// The injected fault kills the stream partway through.
	deadline := time.Now().Add(5 * time.Second)
	for prop.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := prop.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("propagator error = %v, want the injected fault", err)
	}
	applied := prop.ShippedTxns()
	if applied == 0 || applied >= txns {
		t.Fatalf("shipped %d of %d txns before the fault, want a strict partial batch", applied, txns)
	}
	if prop.SpilledTxns() == 0 {
		t.Fatal("no transaction spilled; the test needs the disk path")
	}
	prop.Stop()
	rep.Close()

	// Restart from the original LSN: full overlap with what already landed.
	rep2 := NewReplayer(p.dst, 2, nil, nil, nil)
	prop2 := StartPropagator(p.src, rep2, PropagatorConfig{
		Shards:         map[base.ShardID]bool{testShard: true},
		SnapTS:         snapTS,
		StartLSN:       startLSN,
		SpillThreshold: 16,
		SpillDir:       spillDir,
	})
	defer func() {
		prop2.Stop()
		rep2.Close()
	}()
	if err := prop2.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := prop2.ShippedTxns(); got != txns {
		t.Errorf("retry shipped %d txns, want %d (full re-ship)", got, txns)
	}

	// Every key present exactly once with its original value: re-applied
	// duplicates were rejected, missing transactions were filled in.
	for i := 0; i < txns; i++ {
		for j := 0; j < recs; j++ {
			key := fmt.Sprintf("t%d-k%02d", i, j)
			v, err := p.dstRead(t, key, lastCTS)
			if err != nil || v != fmt.Sprintf("v%d", i) {
				t.Fatalf("%s = %q, %v after retry", key, v, err)
			}
		}
	}
}
