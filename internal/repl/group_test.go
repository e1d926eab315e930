package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/mvcc"
	"remus/internal/wal"
)

// TestGroupShippingEquivalence replays the randomized history at several
// group thresholds: every setting must produce a destination
// indistinguishable from the source, and GroupTxns=1 must degenerate to the
// pre-batching one-message-per-transaction protocol.
func TestGroupShippingEquivalence(t *testing.T) {
	for _, group := range []int{1, 4, 64} {
		t.Run(fmt.Sprintf("group%d", group), func(t *testing.T) {
			prop := runEquivalenceHistory(t, 42, func(cfg *PropagatorConfig) {
				cfg.GroupTxns = group
				cfg.GroupDelay = 200 * time.Microsecond
			})
			if group == 1 && prop.ShippedGroups() != prop.ShippedTxns() {
				t.Errorf("threshold 1 shipped %d groups for %d txns; want one message per txn",
					prop.ShippedGroups(), prop.ShippedTxns())
			}
			if prop.ShippedGroups() > prop.ShippedTxns() {
				t.Errorf("shipped %d groups > %d txns", prop.ShippedGroups(), prop.ShippedTxns())
			}
		})
	}
}

// TestGroupCoalescesBacklog checks the flush triggers deterministically: the
// whole history is in the WAL before the propagator starts, so the commits
// arrive in one read batch and the group shipper's count/byte thresholds
// alone decide the message count.
func TestGroupCoalescesBacklog(t *testing.T) {
	const n = 24
	cases := []struct {
		name       string
		mut        func(*PropagatorConfig)
		wantGroups uint64
	}{
		// 24 commits, flush every 8: exactly 3 messages.
		{"count", func(cfg *PropagatorConfig) {
			cfg.GroupTxns = 8
			cfg.GroupBytes = 1 << 30
			cfg.GroupDelay = time.Hour
		}, 3},
		// Byte threshold of 1 flushes every enqueue: degenerates to 24.
		{"bytes", func(cfg *PropagatorConfig) {
			cfg.GroupTxns = 1 << 20
			cfg.GroupBytes = 1
			cfg.GroupDelay = time.Hour
		}, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := newPair(t)
			snapTS := p.src.Oracle().StartTS()
			startLSN := p.src.WAL().FlushLSN() + 1
			if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
				t.Fatal(err)
			}
			var last base.Timestamp
			for i := 0; i < n; i++ {
				last = p.put(t, mvcc.WriteInsert, fmt.Sprintf("g%02d", i), "v")
			}
			cfg := PropagatorConfig{
				Shards:   map[base.ShardID]bool{testShard: true},
				SnapTS:   snapTS,
				StartLSN: startLSN,
			}
			tc.mut(&cfg)
			rep := NewReplayer(p.dst, 4, nil, nil, nil)
			prop := StartPropagator(p.src, rep, cfg)
			defer func() {
				prop.Stop()
				rep.Close()
			}()
			if err := prop.WaitApplied(p.src.WAL().FlushLSN(), 10*time.Second); err != nil {
				t.Fatal(err)
			}
			if prop.ShippedTxns() != n {
				t.Errorf("shipped txns = %d, want %d", prop.ShippedTxns(), n)
			}
			if prop.ShippedGroups() != tc.wantGroups {
				t.Errorf("shipped groups = %d, want %d", prop.ShippedGroups(), tc.wantGroups)
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("g%02d", i)
				if v, err := p.dstRead(t, key, last); err != nil || v != "v" {
					t.Fatalf("%s = %q, %v", key, v, err)
				}
			}
		})
	}
}

// TestGroupedValidationOrdersAfterParkedCommits: a validation batch must see
// every async commit parked ahead of it. The async commit is backlogged so it
// parks in the group (thresholds never trip), and the validated transaction's
// prepare record follows in the same read batch — the flush-before-validate
// rule is the only thing keeping the shadow's read of the key fresh.
func TestGroupedValidationOrdersAfterParkedCommits(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "k", "v0")
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}

	// T1 commits before the gate exists: a plain async-phase transaction.
	cts1 := p.put(t, mvcc.WriteUpdate, "k", "v1")

	// T2 validates: its prepare parks the source goroutine on the verdict.
	gate := newTestGate(testShard)
	p.src.Manager().InstallGate(gate)
	type res struct {
		cts base.Timestamp
		err error
	}
	done := make(chan res, 1)
	go func() {
		tx := p.src.Manager().Begin(0, 0)
		if err := p.src.Write(tx, testShard, mvcc.WriteUpdate, "k", base.Value("v2")); err != nil {
			done <- res{0, err}
			return
		}
		cts, err := tx.Commit()
		done <- res{cts, err}
	}()
	// Wait for T2's validation prepare to reach the WAL so the whole history
	// is backlog when the propagator starts.
	walDeadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(walDeadline) {
			t.Fatal("T2 prepare record never reached the WAL")
		}
		gate.mu.Lock()
		waiting := len(gate.waits) > 0
		gate.mu.Unlock()
		if waiting {
			break
		}
		time.Sleep(time.Millisecond)
	}

	rep := NewReplayer(p.dst, 4, gate.sink, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:     map[base.ShardID]bool{testShard: true},
		SnapTS:     snapTS,
		StartLSN:   startLSN,
		GroupTxns:  64, // T1 parks; only the validate flush releases it
		GroupBytes: 1 << 30,
		GroupDelay: time.Hour,
	})
	defer func() {
		prop.Stop()
		rep.Close()
	}()

	r := <-done
	if r.err != nil {
		t.Fatalf("validated commit: %v", r.err)
	}
	if err := prop.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := p.dstRead(t, "k", cts1); err != nil || v != "v1" {
		t.Fatalf("dst@cts1 = %q, %v; want v1 (parked commit lost)", v, err)
	}
	if v, err := p.dstRead(t, "k", r.cts); err != nil || v != "v2" {
		t.Fatalf("dst@cts2 = %q, %v; want v2", v, err)
	}
	if rep.Conflicts() != 0 {
		t.Errorf("conflicts = %d; validation raced the parked commit", rep.Conflicts())
	}
	// Two messages: T1's group (flushed by the validate) and T2's validation
	// batch. Anything more means the group never parked.
	if prop.ShippedGroups() != 2 {
		t.Errorf("shipped groups = %d, want 2", prop.ShippedGroups())
	}
}

// TestRestartFloorCoversLostGroup is the group-shipping variant of the
// torn-shadow hazard: several transactions commit, all park in one ship
// group, and the group's single flush dies on the wire. The cursor has
// passed every member, so a rebuild restarting at Consumed()+1 would lose
// them all; PendingLowLSN must point at or below the LOWEST first LSN among
// the group's members.
func TestRestartFloorCoversLostGroup(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}

	// Backlog three interleaved committed transactions; A opens first.
	a := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(a, testShard, mvcc.WriteInsert, base.Key("a1"), base.Value("va")); err != nil {
		t.Fatal(err)
	}
	aFirst := a.FirstLSN()
	b := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(b, testShard, mvcc.WriteInsert, base.Key("b1"), base.Value("vb")); err != nil {
		t.Fatal(err)
	}
	if err := p.src.Write(a, testShard, mvcc.WriteInsert, base.Key("a2"), base.Value("va")); err != nil {
		t.Fatal(err)
	}
	cts, err := a.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Commit(); err != nil {
		t.Fatal(err)
	}
	c := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(c, testShard, mvcc.WriteInsert, base.Key("c1"), base.Value("vc")); err != nil {
		t.Fatal(err)
	}
	cCTS, err := c.Commit()
	if err != nil {
		t.Fatal(err)
	}

	// The very first ship — the idle flush carrying the whole group — dies.
	reg := fault.NewRegistry(3)
	reg.Arm(fault.SiteShipBatch, fault.Action{Err: fault.ErrInjected, Once: true})
	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:     map[base.ShardID]bool{testShard: true},
		SnapTS:     snapTS,
		StartLSN:   startLSN,
		GroupTxns:  64,
		GroupBytes: 1 << 30,
		GroupDelay: time.Hour,
		Faults:     reg,
	})
	deadline := time.Now().Add(5 * time.Second)
	for prop.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := prop.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("propagator error = %v, want the injected fault", err)
	}
	prop.Stop()
	rep.Close()

	if prop.ShippedGroups() != 0 {
		t.Fatalf("shipped %d groups; the lost group was supposed to be the first message", prop.ShippedGroups())
	}
	floor := prop.PendingLowLSN()
	if floor == 0 || floor > aFirst {
		t.Fatalf("unshipped floor = %d, want 0 < floor <= %d (lowest first LSN in the lost group)", floor, aFirst)
	}
	if prop.Consumed()+1 <= aFirst {
		t.Fatalf("cursor %d did not pass A's first record %d; test lost its hazard", prop.Consumed(), aFirst)
	}

	// A failed group must keep WaitApplied from reporting the consumed LSNs
	// as applied: the records never reached the replayer.
	if err := prop.WaitApplied(wal.LSN(1), 50*time.Millisecond); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WaitApplied on the dead stream = %v, want the stream error", err)
	}

	// Rebuild from the floored position: every member of the lost group must
	// arrive whole.
	restart := prop.Consumed() + 1
	if floor < restart {
		restart = floor
	}
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
	if v, err := p.dstRead(t, "a1", cts); err != nil || v != "va" {
		t.Fatalf("dst a1@ctsA = %q, %v; want va (lost-group member torn)", v, err)
	}
	for _, key := range []string{"a1", "a2", "b1", "c1"} {
		want := "v" + key[:1]
		if v, err := p.dstRead(t, key, cCTS); err != nil || v != want {
			t.Fatalf("dst %s = %q, %v; want %q (lost-group member dropped)", key, v, err, want)
		}
	}
}
