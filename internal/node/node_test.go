package node

import (
	"errors"
	"testing"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/mvcc"
	"remus/internal/shard"
	"remus/internal/simnet"
	"remus/internal/txn"
)

func newNode(t *testing.T, id base.NodeID) *Node {
	t.Helper()
	return New(id, simnet.New(simnet.Config{}), clock.NewHLC(clock.WallClock(), 0), mvcc.DefaultConfig())
}

func TestBasicReadWrite(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	tx := n.Manager().Begin(0, 0)
	if err := n.Write(tx, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := n.Manager().Begin(0, 0)
	v, err := n.Get(tx2, 10, "k")
	if err != nil || string(v) != "v" {
		t.Fatalf("get = %q, %v", v, err)
	}
	tx2.Abort()
}

func TestAccessUnknownShard(t *testing.T) {
	n := newNode(t, 1)
	tx := n.Manager().Begin(0, 0)
	if _, err := n.Get(tx, 99, "k"); !errors.Is(err, base.ErrShardMoved) {
		t.Fatalf("err = %v, want shard moved", err)
	}
	tx.Abort()
}

func TestPhaseSourceDiversion(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	setup := n.Manager().Begin(0, 0)
	if err := n.Write(setup, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	oldTxn := n.Manager().Begin(0, 0) // snapshot before diversion
	divertTS := n.Oracle().StartTS()
	n.DivertSource(10, divertTS)

	// The old transaction keeps running.
	if _, err := n.Get(oldTxn, 10, "k"); err != nil {
		t.Fatalf("pre-barrier txn rejected: %v", err)
	}
	oldTxn.Abort()

	// A transaction with a snapshot at/after the barrier is rejected.
	newTxn := n.Manager().Begin(0, 0)
	if newTxn.StartTS < divertTS {
		t.Fatalf("test clock not monotonic: %v < %v", newTxn.StartTS, divertTS)
	}
	if _, err := n.Get(newTxn, 10, "k"); !errors.Is(err, base.ErrShardMoved) {
		t.Fatalf("post-barrier txn = %v, want shard moved", err)
	}
	newTxn.Abort()
}

func TestPhaseDestRejectsUsersUntilActive(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseDest)
	tx := n.Manager().Begin(0, 0)
	if _, err := n.Get(tx, 10, "k"); !errors.Is(err, base.ErrShardMoved) {
		t.Fatalf("err = %v, want shard moved while PhaseDest", err)
	}
	// Replay writes work regardless of phase.
	if err := n.ApplyWrite(tx, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatalf("ApplyWrite on PhaseDest: %v", err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n.SetPhase(10, PhaseDestActive)
	tx2 := n.Manager().Begin(0, 0)
	if v, err := n.Get(tx2, 10, "k"); err != nil || string(v) != "v" {
		t.Fatalf("get after activation = %q, %v", v, err)
	}
	tx2.Abort()
}

func TestDropShard(t *testing.T) {
	n := newNode(t, 1)
	store := n.AddShard(10, 1, PhaseOwned)
	store.InstallBootstrap("k", base.Value("v"))
	n.DropShard(10)
	if _, ok := n.Store(10); ok {
		t.Error("store survives drop")
	}
	if n.PhaseOf(10) != PhaseNone {
		t.Error("phase not none after drop")
	}
	if store.Keys() != 0 {
		t.Error("data not dropped")
	}
	n.DropShard(10) // idempotent
}

func TestHooksRunAndBlock(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	var calls int
	handle := n.AddHook(func(_ *txn.Txn, shardID base.ShardID, _ base.Key, write bool) error {
		calls++
		if write {
			return base.ErrMigrationAbort
		}
		return nil
	})
	tx := n.Manager().Begin(0, 0)
	if _, err := n.Get(tx, 10, "k"); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("read = %v", err)
	}
	if err := n.Write(tx, 10, mvcc.WriteInsert, "k", base.Value("v")); !errors.Is(err, base.ErrMigrationAbort) {
		t.Fatalf("hooked write = %v, want migration abort", err)
	}
	if calls != 2 {
		t.Fatalf("hook ran %d times, want 2", calls)
	}
	n.RemoveHook(handle)
	if err := n.Write(tx, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatalf("write after hook removal: %v", err)
	}
	tx.Abort()
}

func TestCrashRejectsOperations(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	tx := n.Manager().Begin(0, 0)
	n.Crash()
	if !n.Crashed() {
		t.Fatal("crash flag not set")
	}
	if _, err := n.Get(tx, 10, "k"); !errors.Is(err, base.ErrNodeDown) {
		t.Fatalf("get on crashed node = %v", err)
	}
	if err := n.Write(tx, 10, mvcc.WriteInsert, "k", nil); !errors.Is(err, base.ErrNodeDown) {
		t.Fatalf("write on crashed node = %v", err)
	}
	if _, _, err := n.ReadMapRow(1, 10); !errors.Is(err, base.ErrNodeDown) {
		t.Fatalf("map read on crashed node = %v", err)
	}
	// Active transactions were aborted by the crash.
	if n.Manager().ActiveCount() != 0 {
		t.Error("active txns survive crash")
	}
	n.Recover()
	if n.Crashed() {
		t.Fatal("recover did not clear flag")
	}
	tx2 := n.Manager().Begin(0, 0)
	if err := n.Write(tx2, 10, mvcc.WriteInsert, "k", base.Value("v")); err != nil {
		t.Fatalf("write after recover: %v", err)
	}
	tx2.Abort()
}

func TestMapRows(t *testing.T) {
	n := newNode(t, 1)
	d := shard.Desc{ID: 10, Table: 1, Range: shard.HashRange{Lo: 0, Hi: 100}, Node: 1}
	n.InitMapRow(d)
	got, version, err := n.ReadMapRow(n.Oracle().StartTS(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got != d || version != base.TsBootstrap {
		t.Fatalf("row = %+v @%v", got, version)
	}

	// Transactional update (what T_m does).
	tm := n.Manager().Begin(0, 0)
	d2 := d
	d2.Node = 3
	if err := n.WriteMapRow(tm, d2); err != nil {
		t.Fatal(err)
	}
	cts, err := tm.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Old snapshots still see the old placement.
	got, _, err = n.ReadMapRow(cts-1, 10)
	if err != nil || got.Node != 1 {
		t.Fatalf("old snapshot row = %+v, %v", got, err)
	}
	// New snapshots see the new placement with T_m's commit ts as version.
	got, version, err = n.ReadMapRow(cts, 10)
	if err != nil || got.Node != 3 || version != cts {
		t.Fatalf("new snapshot row = %+v @%v, %v", got, version, err)
	}
	if _, _, err := n.ReadMapRow(cts, 999); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("missing row read = %v", err)
	}
}

func TestScan(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	tx := n.Manager().Begin(0, 0)
	for _, k := range []string{"a", "b", "c"} {
		if err := n.Write(tx, 10, mvcc.WriteInsert, base.Key(k), base.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2 := n.Manager().Begin(0, 0)
	var keys []string
	if err := n.Scan(tx2, 10, "a", "c", func(k base.Key, v base.Value) bool {
		keys = append(keys, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || keys[0] != "a" || keys[1] != "b" {
		t.Fatalf("scan = %v", keys)
	}
	tx2.Abort()
}

func TestCounters(t *testing.T) {
	n := newNode(t, 1)
	n.AddShard(10, 1, PhaseOwned)
	tx := n.Manager().Begin(0, 0)
	_ = n.Write(tx, 10, mvcc.WriteInsert, "k", base.Value("v"))
	_, _ = n.Get(tx, 10, "k")
	tx.Abort()
	if n.Counters.ForegroundOps.Load() != 2 {
		t.Errorf("ForegroundOps = %d", n.Counters.ForegroundOps.Load())
	}
}

func TestPhaseStrings(t *testing.T) {
	for _, p := range []Phase{PhaseNone, PhaseOwned, PhaseSource, PhaseDest, PhaseDestActive, Phase(99)} {
		if p.String() == "" {
			t.Errorf("empty string for phase %d", p)
		}
	}
}

func TestAddShardIdempotentAdoptsPhase(t *testing.T) {
	n := newNode(t, 1)
	s1 := n.AddShard(10, 1, PhaseDest)
	s2 := n.AddShard(10, 1, PhaseOwned)
	if s1 != s2 {
		t.Error("AddShard recreated an existing store")
	}
	if n.PhaseOf(10) != PhaseOwned {
		t.Error("AddShard did not adopt the new phase")
	}
	if tbl, ok := n.TableOf(10); !ok || tbl != 1 {
		t.Errorf("TableOf = %v, %v", tbl, ok)
	}
	if len(n.Shards()) != 1 {
		t.Errorf("Shards = %v", n.Shards())
	}
}

// The hot-path counters (lock-free CLOG resolves, lock-stripe collisions,
// version-array swaps) are monotonic store-level totals; Vacuum flushes
// their deltas into the recorder. Pin that plumbing: traffic on the node
// must surface as positive counter values after a vacuum, and a second
// vacuum with no traffic must not double-count.
