package repl

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/mvcc"
	"remus/internal/node"
	"remus/internal/simnet"
	"remus/internal/txn"
	"remus/internal/wal"
)

const testShard base.ShardID = 10

// pair is a source/destination node fixture sharing a wall clock.
type pair struct {
	src, dst *node.Node
}

func newPair(t testing.TB) *pair {
	t.Helper()
	return newPairNet(t, simnet.Config{})
}

// newPairNet is newPair over an interconnect with the given characteristics
// (benchmarks charge a realistic per-message cost; unit tests run free).
func newPairNet(t testing.TB, netCfg simnet.Config) *pair {
	t.Helper()
	net := simnet.New(netCfg)
	ts := clock.WallClock() // one physical source for both nodes
	src := node.New(1, net, clock.NewHLC(ts, 0), mvcc.DefaultConfig())
	dst := node.New(2, net, clock.NewHLC(ts, 0), mvcc.DefaultConfig())
	src.AddShard(testShard, 1, node.PhaseOwned)
	dst.AddShard(testShard, 1, node.PhaseDest)
	return &pair{src: src, dst: dst}
}

// put commits one write on the source and returns the commit timestamp.
func (p *pair) put(t testing.TB, kind mvcc.WriteKind, key, value string) base.Timestamp {
	t.Helper()
	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, testShard, kind, base.Key(key), base.Value(value)); err != nil {
		t.Fatal(err)
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return cts
}

// dstRead reads a key on the destination at the given snapshot.
func (p *pair) dstRead(t testing.TB, key string, snap base.Timestamp) (string, error) {
	t.Helper()
	store, ok := p.dst.Store(testShard)
	if !ok {
		t.Fatal("no destination store")
	}
	v, err := store.Read(base.Key(key), snap, base.InvalidXID)
	return string(v), err
}

func TestCopySnapshotBasic(t *testing.T) {
	p := newPair(t)
	for i := 0; i < 100; i++ {
		p.put(t, mvcc.WriteInsert, fmt.Sprintf("k%03d", i), "v")
	}
	snapTS := p.src.Oracle().StartTS()
	stats, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 1024, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != 100 {
		t.Fatalf("copied %d tuples, want 100", stats.Tuples)
	}
	if stats.Bytes == 0 {
		t.Error("no bytes accounted")
	}
	// Bootstrap data is visible at any snapshot on the destination.
	if v, err := p.dstRead(t, "k000", base.TsBootstrap+1); err != nil || v != "v" {
		t.Fatalf("dst read = %q, %v", v, err)
	}
	if p.dst.Counters.SnapshotOps.Load() != 100 {
		t.Errorf("dst snapshot ops = %d", p.dst.Counters.SnapshotOps.Load())
	}
}

func TestCopySnapshotExcludesNewerCommits(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "k", "old")
	snapTS := p.src.Oracle().StartTS()
	p.put(t, mvcc.WriteUpdate, "k", "new") // after the snapshot
	stats, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Tuples != 1 {
		t.Fatalf("tuples = %d", stats.Tuples)
	}
	if v, _ := p.dstRead(t, "k", base.TsMax); v != "old" {
		t.Fatalf("dst has %q, want the snapshot version", v)
	}
}

func TestCopySnapshotMissingShards(t *testing.T) {
	p := newPair(t)
	if _, err := CopySnapshot(p.src, p.dst, 999, 1, 0, nil, nil); err == nil {
		t.Error("copy of unknown shard succeeded")
	}
	p.src.AddShard(11, 1, node.PhaseOwned)
	if _, err := CopySnapshot(p.src, p.dst, 11, 1, 0, nil, nil); err == nil {
		t.Error("copy without destination store succeeded")
	}
}

// startStream spins up replayer + propagator over the pair.
func (p *pair) startStream(t *testing.T, snapTS base.Timestamp, startLSN wal.LSN, sink func(base.XID, error), workers int) (*Replayer, *Propagator) {
	t.Helper()
	rep := NewReplayer(p.dst, workers, sink, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:   map[base.ShardID]bool{testShard: true},
		SnapTS:   snapTS,
		StartLSN: startLSN,
	})
	t.Cleanup(func() {
		prop.Stop()
		rep.Close()
	})
	return rep, prop
}

func TestAsyncPropagationAppliesCommits(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "seed", "v")
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, prop := p.startStream(t, snapTS, startLSN, nil, 4)

	cts := p.put(t, mvcc.WriteInsert, "k1", "v1")
	cts2 := p.put(t, mvcc.WriteUpdate, "k1", "v2")
	if err := prop.WaitCaughtUp(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Same commit timestamps on the destination: snapshot between the two
	// commits sees v1, after sees v2.
	if v, err := p.dstRead(t, "k1", cts); err != nil || v != "v1" {
		t.Fatalf("read@%v = %q, %v", cts, v, err)
	}
	if v, err := p.dstRead(t, "k1", cts2); err != nil || v != "v2" {
		t.Fatalf("read@%v = %q, %v", cts2, v, err)
	}
	if prop.ShippedTxns() != 2 {
		t.Errorf("shipped %d txns, want 2", prop.ShippedTxns())
	}
}

func TestPropagationDropsPreSnapshotAndForeignShards(t *testing.T) {
	p := newPair(t)
	p.src.AddShard(11, 1, node.PhaseOwned)
	startLSN := p.src.WAL().FlushLSN() + 1
	p.put(t, mvcc.WriteInsert, "early", "v") // commits before snapTS
	snapTS := p.src.Oracle().StartTS()
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, prop := p.startStream(t, snapTS, startLSN, nil, 2)

	// Write to a non-migrating shard: ignored entirely.
	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, 11, mvcc.WriteInsert, "other", base.Value("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := prop.WaitCaughtUp(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if prop.ShippedTxns() != 0 {
		t.Errorf("shipped %d txns, want 0 (pre-snapshot + foreign shard)", prop.ShippedTxns())
	}
	// The early write reached the destination via the snapshot, not replay.
	if v, err := p.dstRead(t, "early", base.TsMax); err != nil || v != "v" {
		t.Fatalf("early = %q, %v", v, err)
	}
}

func TestPropagationDropsAbortedTxns(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, prop := p.startStream(t, snapTS, startLSN, nil, 2)
	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, testShard, mvcc.WriteInsert, "dead", base.Value("x")); err != nil {
		t.Fatal(err)
	}
	tx.Abort()
	if err := prop.WaitCaughtUp(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if prop.ShippedTxns() != 0 {
		t.Errorf("shipped %d, want 0", prop.ShippedTxns())
	}
	if _, err := p.dstRead(t, "dead", base.TsMax); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("aborted write visible on destination: %v", err)
	}
}

func TestParallelApplyPreservesPerKeyOrder(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "hot", "0")
	for i := 0; i < 20; i++ {
		p.put(t, mvcc.WriteInsert, fmt.Sprintf("cold%02d", i), "c")
	}
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, prop := p.startStream(t, snapTS, startLSN, nil, 8)

	// Interleave hot-key updates with disjoint writes.
	var finalCTS base.Timestamp
	for i := 1; i <= 50; i++ {
		finalCTS = p.put(t, mvcc.WriteUpdate, "hot", fmt.Sprintf("%d", i))
		p.put(t, mvcc.WriteUpdate, fmt.Sprintf("cold%02d", i%20), fmt.Sprintf("c%d", i))
	}
	if err := prop.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := p.dstRead(t, "hot", finalCTS); err != nil || v != "50" {
		t.Fatalf("hot = %q, %v; want 50 (per-key order violated)", v, err)
	}
	// Intermediate snapshots see intermediate values consistently.
	if v, err := p.dstRead(t, "hot", snapTS); err != nil || v != "0" {
		t.Fatalf("hot@snap = %q, %v", v, err)
	}
}

func TestSpillToDisk(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:         map[base.ShardID]bool{testShard: true},
		SnapTS:         snapTS,
		StartLSN:       startLSN,
		SpillThreshold: 16, // force spilling
		SpillDir:       t.TempDir(),
	})
	defer func() {
		prop.Stop()
		rep.Close()
	}()

	tx := p.src.Manager().Begin(0, 0)
	const n = 100
	for i := 0; i < n; i++ {
		if err := p.src.Write(tx, testShard, mvcc.WriteInsert, base.Key(fmt.Sprintf("big%03d", i)), base.Value("payload")); err != nil {
			t.Fatal(err)
		}
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if err := prop.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if prop.SpilledTxns() != 1 {
		t.Errorf("spilled txns = %d, want 1", prop.SpilledTxns())
	}
	if prop.ShippedRecords() != n {
		t.Errorf("shipped records = %d, want %d", prop.ShippedRecords(), n)
	}
	for i := 0; i < n; i += 17 {
		if v, err := p.dstRead(t, fmt.Sprintf("big%03d", i), cts); err != nil || v != "payload" {
			t.Fatalf("big%03d = %q, %v", i, v, err)
		}
	}
}

// testGate is the minimal MOCC gate: validate every txn touching the shard
// set, park commits until the sink delivers the destination's verdict.
type testGate struct {
	shards map[base.ShardID]bool
	mu     sync.Mutex
	waits  map[base.XID]chan error
	early  map[base.XID]error
}

func newTestGate(shards ...base.ShardID) *testGate {
	g := &testGate{shards: map[base.ShardID]bool{}, waits: map[base.XID]chan error{}, early: map[base.XID]error{}}
	for _, s := range shards {
		g.shards[s] = true
	}
	return g
}

func (g *testGate) NeedsValidation(t *txn.Txn) bool {
	for _, s := range t.TouchedShards() {
		if g.shards[s] {
			return true
		}
	}
	return false
}

func (g *testGate) WaitValidation(t *txn.Txn) error {
	g.mu.Lock()
	if err, ok := g.early[t.XID]; ok {
		delete(g.early, t.XID)
		g.mu.Unlock()
		return err
	}
	ch := make(chan error, 1)
	g.waits[t.XID] = ch
	g.mu.Unlock()
	select {
	case err := <-ch:
		return err
	case <-time.After(10 * time.Second):
		return base.ErrTimeout
	}
}

func (g *testGate) sink(xid base.XID, err error) {
	g.mu.Lock()
	ch, ok := g.waits[xid]
	if ok {
		delete(g.waits, xid)
	} else {
		g.early[xid] = err
	}
	g.mu.Unlock()
	if ok {
		ch <- err
	}
}

func TestSyncValidationCommitFlow(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "k", "v0")
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	gate := newTestGate(testShard)
	rep, prop := p.startStream(t, snapTS, startLSN, gate.sink, 4)
	p.src.Manager().InstallGate(gate)

	cts := p.put(t, mvcc.WriteUpdate, "k", "v1") // blocks until validated
	if err := prop.WaitCaughtUp(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if v, err := p.dstRead(t, "k", cts); err != nil || v != "v1" {
		t.Fatalf("dst read = %q, %v", v, err)
	}
	if rep.Conflicts() != 0 {
		t.Errorf("conflicts = %d", rep.Conflicts())
	}
	if rep.PreparedShadows() != 0 {
		t.Errorf("residual prepared shadows = %d", rep.PreparedShadows())
	}
}

func TestSyncValidationWWConflictAbortsSource(t *testing.T) {
	p := newPair(t)
	p.put(t, mvcc.WriteInsert, "k", "v0")
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	gate := newTestGate(testShard)
	rep, _ := p.startStream(t, snapTS, startLSN, gate.sink, 4)
	p.src.Manager().InstallGate(gate)
	p.dst.SetPhase(testShard, node.PhaseDestActive)

	// Source transaction writes k but does not commit yet.
	ts := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(ts, testShard, mvcc.WriteUpdate, "k", base.Value("src")); err != nil {
		t.Fatal(err)
	}
	// Destination transaction updates the same tuple and commits first. Its
	// snapshot models the ordered-diversion barrier: in the integrated
	// protocol every destination transaction has startTS >= T_m.commitTS,
	// which is strictly above any source transaction's snapshot (Thm 3.1).
	td := p.dst.Manager().Begin(0, ts.StartTS+1000)
	if err := p.dst.Write(td, testShard, mvcc.WriteUpdate, "k", base.Value("dst")); err != nil {
		t.Fatal(err)
	}
	dstCTS, err := td.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Now the source commit must fail MOCC validation.
	if _, err := ts.Commit(); !errors.Is(err, base.ErrWWConflict) {
		t.Fatalf("source commit = %v, want ww-conflict", err)
	}
	if rep.Conflicts() != 1 {
		t.Errorf("conflicts = %d, want 1", rep.Conflicts())
	}
	// The destination's value survives.
	if v, err := p.dstRead(t, "k", dstCTS); err != nil || v != "dst" {
		t.Fatalf("dst read = %q, %v", v, err)
	}
}

func TestValidatedTxnAbortRollsBackShadow(t *testing.T) {
	// A source transaction that validates OK but then aborts (distributed
	// coordinator decision) must roll back its prepared shadow.
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	gate := newTestGate(testShard)
	rep, prop := p.startStream(t, snapTS, startLSN, gate.sink, 4)
	p.src.Manager().InstallGate(gate)

	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, testShard, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Prepare(); err != nil { // validates and prepares shadow
		t.Fatal(err)
	}
	if rep.PreparedShadows() != 1 {
		t.Fatalf("prepared shadows = %d, want 1", rep.PreparedShadows())
	}
	if err := tx.Abort(); err != nil { // coordinator decided abort
		t.Fatal(err)
	}
	if err := prop.WaitCaughtUp(0, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if rep.PreparedShadows() != 0 {
		t.Errorf("prepared shadows = %d after abort", rep.PreparedShadows())
	}
	if _, err := p.dstRead(t, "k", base.TsMax); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("aborted shadow visible: %v", err)
	}
}

func TestPreparedShadowBlocksDestinationReaders(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	gate := newTestGate(testShard)
	_, _ = p.startStream(t, snapTS, startLSN, gate.sink, 4)
	p.src.Manager().InstallGate(gate)

	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, testShard, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	prepTS, err := tx.Prepare() // shadow now prepared on destination
	if err != nil {
		t.Fatal(err)
	}
	// A destination reader with a future snapshot must prepare-wait on the
	// shadow (distributed SI, §3.5.2).
	got := make(chan error, 1)
	go func() {
		_, err := p.dstRead(t, "k", base.TsMax)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("destination reader did not block on prepared shadow: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	cts := p.src.Oracle().CommitTS(prepTS)
	if err := tx.CommitAt(cts); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatalf("destination reader after commit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("destination reader stuck")
	}
}

func TestWaitAppliedBarrier(t *testing.T) {
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	_, prop := p.startStream(t, snapTS, startLSN, nil, 4)
	for i := 0; i < 50; i++ {
		p.put(t, mvcc.WriteInsert, fmt.Sprintf("k%02d", i), "v")
	}
	lsn := p.src.WAL().FlushLSN()
	if err := prop.WaitApplied(lsn, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	// Everything up to lsn is applied.
	for i := 0; i < 50; i++ {
		if v, err := p.dstRead(t, fmt.Sprintf("k%02d", i), base.TsMax); err != nil || v != "v" {
			t.Fatalf("k%02d = %q, %v", i, v, err)
		}
	}
}

func TestResolveResidualShadow(t *testing.T) {
	// Crash-recovery path: a prepared shadow whose source outcome is
	// discovered later is committed with the recovered timestamp (§3.7).
	p := newPair(t)
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	gate := newTestGate(testShard)
	rep, _ := p.startStream(t, snapTS, startLSN, gate.sink, 2)
	p.src.Manager().InstallGate(gate)

	tx := p.src.Manager().Begin(0, 0)
	if err := p.src.Write(tx, testShard, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	prepTS, err := tx.Prepare()
	if err != nil {
		t.Fatal(err)
	}
	residual := rep.ResidualShadows()
	if len(residual) != 1 || residual[0] != tx.XID {
		t.Fatalf("residual = %v", residual)
	}
	cts := p.src.Oracle().CommitTS(prepTS)
	if err := rep.ResolveShadow(tx.XID, true, cts); err != nil {
		t.Fatal(err)
	}
	if v, err := p.dstRead(t, "k", cts); err != nil || v != "v" {
		t.Fatalf("resolved shadow read = %q, %v", v, err)
	}
	if err := rep.ResolveShadow(999, true, cts); err == nil {
		t.Error("resolve of unknown shadow succeeded")
	}
	_ = tx.Abort // silence linters about unused; the source txn is left prepared deliberately
}

func TestReplayerCloseIdempotent(t *testing.T) {
	p := newPair(t)
	rep := NewReplayer(p.dst, 2, nil, nil, nil)
	rep.Close()
	rep.Close()
}
