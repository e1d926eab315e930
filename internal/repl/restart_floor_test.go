package repl

import (
	"errors"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/mvcc"
)

// TestRestartFloorCoversStraddlingCommit reproduces the torn-shadow hazard
// of drive-forward recovery (§3.7): transaction A's first update is
// consumed into the propagator's in-memory queue, other transactions'
// batches ship, and then A's own ship fails — killing the stream after the
// cursor has passed A's early updates. A has committed on the source, so
// the rebuild's ActiveTxns scan cannot see it; restarting the replacement
// stream at Consumed()+1 would re-extract only A's tail records plus its
// commit and apply a torn shadow on the destination. PendingLowLSN must
// point at or below A's first record so the restart re-extracts A whole.
func TestRestartFloorCoversStraddlingCommit(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Ship #1 (transaction B) succeeds; ship #2 (transaction A) dies.
	reg := fault.NewRegistry(3)
	reg.Arm(fault.SiteShipBatch, fault.Action{Err: fault.ErrInjected, After: 1, Once: true})

	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:   map[base.ShardID]bool{testShard: true},
		SnapTS:   snapTS,
		StartLSN: startLSN,
		Faults:   reg,
	})

	// WAL layout: A's first update, then B's whole transaction, then A's
	// second update and commit. C stays open across the failure so its
	// queued update exercises the exit sweep too.
	a := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(a, testShard, mvcc.WriteInsert, base.Key("a1"), base.Value("va")); err != nil {
		t.Fatal(err)
	}
	aFirst := a.FirstLSN()
	b := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(b, testShard, mvcc.WriteInsert, base.Key("b1"), base.Value("vb")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	c := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(c, testShard, mvcc.WriteInsert, base.Key("c1"), base.Value("vc")); err != nil {
		t.Fatal(err)
	}
	if err := p.src.Write(a, testShard, mvcc.WriteInsert, base.Key("a2"), base.Value("va")); err != nil {
		t.Fatal(err)
	}
	aCTS, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for prop.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := prop.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("propagator error = %v, want the injected fault", err)
	}
	prop.Stop()
	rep.Close()
	_ = c.Abort()

	floor := prop.PendingLowLSN()
	if floor == 0 || floor > aFirst {
		t.Fatalf("unshipped floor = %d, want 0 < floor <= %d (A's first record)", floor, aFirst)
	}
	restart := prop.Consumed() + 1
	if floor < restart {
		restart = floor
	}

	// A replacement stream from the floored position must deliver A whole
	// and leave B's re-delivered copy deduplicated.
	rep2 := NewReplayer(p.dst, 2, nil, nil, nil)
	prop2 := StartPropagator(p.src, rep2, PropagatorConfig{
		Shards:   map[base.ShardID]bool{testShard: true},
		SnapTS:   snapTS,
		StartLSN: restart,
	})
	defer func() {
		prop2.Stop()
		rep2.Close()
	}()
	if err := prop2.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"a1", "a2", "b1"} {
		want := "v" + key[:1]
		if v, err := p.dstRead(t, key, aCTS); err != nil || v != want {
			t.Fatalf("dst %s = %q, %v; want %q (torn or lost transaction)", key, v, err, want)
		}
	}
	if _, err := p.dstRead(t, "c1", aCTS); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("dst c1 err = %v, want not-found (C aborted on the source)", err)
	}

	// The counterfactual restart position — what the rebuild used before
	// the floor existed — demonstrably loses A's first update.
	if prop.Consumed()+1 > aFirst {
		t.Logf("cursor restart %d would have skipped A's first record at %d", prop.Consumed()+1, aFirst)
	} else {
		t.Errorf("cursor %d did not pass A's first record %d; test lost its hazard", prop.Consumed(), aFirst)
	}
}
