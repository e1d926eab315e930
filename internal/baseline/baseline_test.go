package baseline

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/mvcc"
	"remus/internal/shard"
	"remus/internal/simnet"
)

type fixture struct {
	c   *cluster.Cluster
	tbl *shard.Table
}

func newFixture(t *testing.T, nodes, shards, rows int) *fixture {
	t.Helper()
	store := mvcc.DefaultConfig()
	store.LockTimeout = 5 * time.Second
	store.PrepareWaitTimeout = 5 * time.Second
	c := cluster.New(cluster.Config{Nodes: nodes, Store: store})
	tbl, err := c.CreateTable("accounts", shards, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	var rowsKV []cluster.KV
	for i := 0; i < rows; i++ {
		rowsKV = append(rowsKV, cluster.KV{Key: base.EncodeUint64Key(uint64(i)), Value: base.Value(fmt.Sprintf("v%d", i))})
	}
	tx, _ := s.Begin()
	if err := tx.BatchInsert(tbl, rowsKV); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return &fixture{c: c, tbl: tbl}
}

func (f *fixture) verify(t *testing.T, rows int, sessNode base.NodeID) {
	t.Helper()
	s, err := f.c.Connect(sessNode)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	seen := map[string]int{}
	if err := tx.ScanTable(f.tbl, func(k base.Key, v base.Value) bool {
		seen[string(k)]++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != rows {
		t.Fatalf("scan found %d keys, want %d", len(seen), rows)
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("key %x visible %d times", k, n)
		}
	}
}

func shortOpts() Options {
	o := DefaultOptions()
	o.Workers = 4
	o.PhaseTimeout = 20 * time.Second
	return o
}

// ---------------------------------------------------------------------------
// lock-and-abort

func TestLockAndAbortIdle(t *testing.T) {
	const rows = 300
	f := newFixture(t, 2, 2, rows)
	la := NewLockAndAbort(f.c, shortOpts())
	rep, err := la.Migrate(f.c.ShardsOn(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbortedTxns != 0 {
		t.Errorf("aborted %d txns on an idle cluster", rep.AbortedTxns)
	}
	if rep.SnapshotTuples == 0 {
		t.Error("no snapshot copied")
	}
	if len(f.c.ShardsOn(1)) != 0 {
		t.Error("source still owns shards")
	}
	f.verify(t, rows, 1)
}

func TestLockAndAbortKillsActiveWriter(t *testing.T) {
	const rows = 100
	f := newFixture(t, 2, 2, rows)
	group := f.c.ShardsOn(1)

	// A long transaction has written the migrating shard and is still open.
	var key base.Key
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if f.tbl.ShardOf(k) == group[0] {
			key = k
			break
		}
	}
	s, _ := f.c.Connect(1)
	victim, _ := s.Begin()
	if err := victim.Update(f.tbl, key, base.Value("doomed")); err != nil {
		t.Fatal(err)
	}

	la := NewLockAndAbort(f.c, shortOpts())
	rep, err := la.Migrate(group, 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbortedTxns != 1 {
		t.Errorf("aborted = %d, want 1", rep.AbortedTxns)
	}
	// The victim observes a migration-induced abort.
	if _, err := victim.Commit(); !errors.Is(err, base.ErrMigrationAbort) {
		t.Fatalf("victim commit = %v, want migration abort", err)
	}
	// Its write is gone; the original value survives on the destination.
	s2, _ := f.c.Connect(2)
	tx, _ := s2.Begin()
	v, err := tx.Get(f.tbl, key)
	if err != nil || string(v) == "doomed" {
		t.Fatalf("value = %q, %v", v, err)
	}
	tx.Abort()
	f.verify(t, rows, 2)
}

func TestLockAndAbortBlocksThenAbortsNewWriter(t *testing.T) {
	const rows = 100
	f := newFixture(t, 2, 2, rows)
	group := f.c.ShardsOn(1)
	var key base.Key
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if f.tbl.ShardOf(k) == group[0] {
			key = k
			break
		}
	}

	// Slow the transfer down with a long-lived writer so the new writer
	// reliably lands inside the transfer window.
	s0, _ := f.c.Connect(1)
	longTxn, _ := s0.Begin()
	if err := longTxn.Update(f.tbl, key, base.Value("long")); err != nil {
		t.Fatal(err)
	}
	// The long txn ignores its own abort for a while, holding the transfer
	// window open: lock-and-abort waits for it to finish after killing it.
	go func() {
		time.Sleep(100 * time.Millisecond)
		longTxn.Abort()
	}()
	// AbortWith from the migration happens quickly; the txn is then already
	// finished, so actually the window is short. Instead, hold the window
	// open by writing from a second session the moment migration starts.
	la := NewLockAndAbort(f.c, shortOpts())
	migDone := make(chan error, 1)
	go func() {
		_, err := la.Migrate(group, 2)
		migDone <- err
	}()

	// Writer that arrives during the migration: it must either succeed
	// (before/after the transfer) or fail with a migration abort; never
	// hang, never see an inconsistency.
	s1, _ := f.c.Connect(1)
	var abortSeen bool
	for i := 0; i < 200; i++ {
		tx, err := s1.Begin()
		if err != nil {
			t.Fatal(err)
		}
		err = tx.Update(f.tbl, key, base.Value(fmt.Sprintf("w%d", i)))
		if err == nil {
			_, err = tx.Commit()
		} else {
			tx.Abort()
		}
		if err != nil {
			if errors.Is(err, base.ErrMigrationAbort) {
				abortSeen = true
			} else if !errors.Is(err, base.ErrWWConflict) {
				t.Fatalf("iteration %d: %v", i, err)
			}
		}
		select {
		case err := <-migDone:
			if err != nil {
				t.Fatal(err)
			}
			_ = abortSeen // may or may not trigger depending on timing
			f.verify(t, rows, 2)
			return
		default:
		}
	}
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	f.verify(t, rows, 2)
}

// ---------------------------------------------------------------------------
// wait-and-remaster

func TestRemasterIdle(t *testing.T) {
	const rows = 300
	f := newFixture(t, 2, 2, rows)
	wr := NewWaitAndRemaster(f.c, shortOpts())
	rep, err := wr.Migrate(f.c.ShardsOn(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbortedTxns != 0 {
		t.Error("remaster aborted transactions")
	}
	f.verify(t, rows, 1)
}

func TestRemasterWaitsForOngoingTxn(t *testing.T) {
	const rows = 100
	f := newFixture(t, 2, 2, rows)
	group := f.c.ShardsOn(1)
	var key base.Key
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if f.tbl.ShardOf(k) == group[0] {
			key = k
			break
		}
	}

	s, _ := f.c.Connect(1)
	long, _ := s.Begin()
	if err := long.Update(f.tbl, key, base.Value("slow")); err != nil {
		t.Fatal(err)
	}
	// Commit the long transaction 150ms into the migration.
	hold := 150 * time.Millisecond
	go func() {
		time.Sleep(hold)
		if _, err := long.Commit(); err != nil {
			t.Errorf("long txn commit: %v", err)
		}
	}()

	wr := NewWaitAndRemaster(f.c, shortOpts())
	start := time.Now()
	rep, err := wr.Migrate(group, 2)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < hold {
		t.Errorf("migration finished in %v, before the ongoing txn (%v)", elapsed, hold)
	}
	if rep.TransferDuration < hold/2 {
		t.Errorf("transfer window %v did not include the wait", rep.TransferDuration)
	}
	if rep.AbortedTxns != 0 {
		t.Error("remaster aborted transactions")
	}
	// The long transaction's write survived the migration.
	s2, _ := f.c.Connect(2)
	tx, _ := s2.Begin()
	v, err := tx.Get(f.tbl, key)
	if err != nil || string(v) != "slow" {
		t.Fatalf("value = %q, %v", v, err)
	}
	tx.Abort()
	f.verify(t, rows, 2)
}

func TestRemasterBlocksNewArrivalsThenReroutes(t *testing.T) {
	const rows = 100
	f := newFixture(t, 2, 2, rows)
	group := f.c.ShardsOn(1)
	var key base.Key
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if f.tbl.ShardOf(k) == group[0] {
			key = k
			break
		}
	}
	s, _ := f.c.Connect(1)
	long, _ := s.Begin()
	if err := long.Update(f.tbl, key, base.Value("slow")); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(100 * time.Millisecond)
		if _, err := long.Commit(); err != nil {
			t.Errorf("long commit: %v", err)
		}
	}()
	wr := NewWaitAndRemaster(f.c, shortOpts())
	migDone := make(chan error, 1)
	go func() {
		_, err := wr.Migrate(group, 2)
		migDone <- err
	}()
	time.Sleep(30 * time.Millisecond) // inside the wait window

	// A new arrival touching the migrating shard blocks, then succeeds on
	// the destination — zero aborts.
	s2, _ := f.c.Connect(1)
	tx, err := s2.Begin()
	if err != nil {
		t.Fatal(err)
	}
	blockedStart := time.Now()
	v, err := tx.Get(f.tbl, key)
	if err != nil {
		t.Fatalf("blocked arrival failed: %v", err)
	}
	if blocked := time.Since(blockedStart); blocked < 30*time.Millisecond {
		t.Logf("arrival served after %v (may have raced the transfer)", blocked)
	}
	_ = v
	tx.Abort()
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	f.verify(t, rows, 2)
}

// ---------------------------------------------------------------------------
// Squall

func newSquallFixture(t *testing.T, nodes, shards, rows int) (*fixture, *ShardLockCC) {
	f := newFixture(t, nodes, shards, rows)
	cc := NewShardLockCC(10 * time.Second)
	cc.Install(f.c)
	t.Cleanup(func() { cc.Uninstall(f.c) })
	return f, cc
}

func TestShardLockCCSerializesPerShard(t *testing.T) {
	f, _ := newSquallFixture(t, 1, 2, 50)
	s1, _ := f.c.Connect(1)
	s2, _ := f.c.Connect(1)
	key := base.EncodeUint64Key(1)
	shardID := f.tbl.ShardOf(key)
	// Find a second key in the SAME shard.
	var key2 base.Key
	for i := uint64(2); i < 50; i++ {
		if f.tbl.ShardOf(base.EncodeUint64Key(i)) == shardID {
			key2 = base.EncodeUint64Key(i)
			break
		}
	}
	t1, _ := s1.Begin()
	if _, err := t1.Get(f.tbl, key); err != nil {
		t.Fatal(err)
	}
	// A second txn touching the same shard blocks until t1 finishes, even
	// on a different key (partition-level locking).
	t2, _ := s2.Begin()
	done := make(chan error, 1)
	go func() {
		_, err := t2.Get(f.tbl, key2)
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("same-shard txn not blocked: %v", err)
	case <-time.After(30 * time.Millisecond):
	}
	t1.Abort()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	t2.Abort()
}

func TestSquallIdleMigration(t *testing.T) {
	const rows = 400
	f, cc := newSquallFixture(t, 2, 2, rows)
	sq := NewSquall(f.c, cc, SquallOptions{ChunkBytes: 1 << 10})
	rep, err := sq.Migrate(f.c.ShardsOn(1), 2)
	if err != nil {
		t.Fatal(err)
	}
	if rep.AbortedTxns != 0 {
		t.Errorf("aborted %d on idle cluster", rep.AbortedTxns)
	}
	if len(f.c.ShardsOn(1)) != 0 {
		t.Error("source still owns shards")
	}
	f.verify(t, rows, 1)
}

func TestSquallReactivePullServesNewTxns(t *testing.T) {
	const rows = 300
	f, cc := newSquallFixture(t, 2, 2, rows)
	group := f.c.ShardsOn(1)

	// Use one background worker and large chunks so pulls are slow enough
	// that a new transaction arrives before background completion; it must
	// be served via a reactive pull.
	sq := NewSquall(f.c, cc, SquallOptions{ChunkBytes: 1 << 9, BackgroundWorkers: 1})
	migDone := make(chan error, 1)
	go func() {
		_, err := sq.Migrate(group, 2)
		migDone <- err
	}()

	s, _ := f.c.Connect(2)
	served := 0
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if f.tbl.ShardOf(k) != group[0] {
			continue
		}
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// A snapshot taken before the map move still routes to the source,
		// and once the key's chunk is pulled that access is killed (as
		// TestSquallAbortsSourceAccessToMigratedChunk pins): not served.
		_, err = tx.Get(f.tbl, k)
		switch {
		case err == nil:
			served++
		case !errors.Is(err, base.ErrWWConflict) && !errors.Is(err, base.ErrMigrationAbort):
			t.Fatalf("get during pull migration: %v", err)
		}
		tx.Abort()
	}
	if served == 0 {
		t.Error("no transactions served during the pull migration")
	}
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	f.verify(t, rows, 1)
}

func TestSquallAbortsSourceAccessToMigratedChunk(t *testing.T) {
	const rows = 200
	// Give the interconnect real latency so chunk pulls take a while and
	// the migration window is wide.
	store := mvcc.DefaultConfig()
	c := cluster.New(cluster.Config{Nodes: 2, Store: store,
		Net: simnet.Config{Latency: 2 * time.Millisecond}})
	tbl, err := c.CreateTable("accounts", 2, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, _ := c.Connect(1)
	var rowsKV []cluster.KV
	for i := 0; i < rows; i++ {
		rowsKV = append(rowsKV, cluster.KV{Key: base.EncodeUint64Key(uint64(i)), Value: base.Value(fmt.Sprintf("value-%06d", i))})
	}
	tx0, _ := s.Begin()
	if err := tx0.BatchInsert(tbl, rowsKV); err != nil {
		t.Fatal(err)
	}
	if _, err := tx0.Commit(); err != nil {
		t.Fatal(err)
	}
	f := &fixture{c: c, tbl: tbl}

	cc := NewShardLockCC(10 * time.Second)
	cc.Install(c)
	defer cc.Uninstall(c)

	group := c.ShardsOn(1)
	// The smallest key of the migrating shard lives in chunk 0, which the
	// single background worker pulls first.
	var key base.Key
	for i := 0; i < rows; i++ {
		k := base.EncodeUint64Key(uint64(i))
		if tbl.ShardOf(k) == group[0] && (key == "" || k < key) {
			key = k
		}
	}

	// Old transaction: snapshot taken before the migration.
	old, _ := s.Begin()

	sq := NewSquall(c, cc, SquallOptions{ChunkBytes: 64, BackgroundWorkers: 1})
	migDone := make(chan error, 1)
	go func() {
		_, err := sq.Migrate(group, 2)
		migDone <- err
	}()
	// Wait until chunk 0 has certainly been pulled but the migration is
	// still running, then touch it on the source.
	var sawAbort bool
	for i := 0; i < 500; i++ {
		time.Sleep(2 * time.Millisecond)
		err := old.Update(tbl, key, base.Value("late"))
		if errors.Is(err, base.ErrMigrationAbort) {
			sawAbort = true
			break
		}
		if err == nil {
			// Chunk 0 not pulled yet and the txn now holds the source shard
			// lock, blocking the migration — commit to release and retry
			// with a fresh "old" transaction.
			if _, err := old.Commit(); err != nil {
				t.Fatal(err)
			}
			old, _ = s.Begin()
			continue
		}
		select {
		case e := <-migDone:
			if e != nil {
				t.Fatal(e)
			}
			t.Skip("migration finished before the source access landed")
		default:
		}
	}
	old.Abort()
	if err := <-migDone; err != nil {
		t.Fatal(err)
	}
	if !sawAbort {
		t.Error("no migration-induced abort observed on source access to a migrated chunk")
	}
	if sq.AbortedTotal() == 0 {
		t.Error("squall abort counter is zero")
	}
	f.verify(t, rows, 1)
}

func TestSquallBatchHoldingLocksBlocksOthers(t *testing.T) {
	const rows = 100
	f, cc := newSquallFixture(t, 2, 2, rows)
	_ = cc

	// A batch transaction writes one shard and stays open, holding its
	// shard lock; another session's txn on the same shard blocks.
	key := base.EncodeUint64Key(1)
	shardID := f.tbl.ShardOf(key)
	s1, _ := f.c.Connect(1)
	batch, _ := s1.Begin()
	if err := batch.Update(f.tbl, key, base.Value("batch")); err != nil {
		t.Fatal(err)
	}
	var key2 base.Key
	for i := uint64(2); i < rows; i++ {
		if f.tbl.ShardOf(base.EncodeUint64Key(i)) == shardID {
			key2 = base.EncodeUint64Key(i)
			break
		}
	}
	s2, _ := f.c.Connect(2)
	done := make(chan error, 1)
	var blockedFor time.Duration
	go func() {
		start := time.Now()
		tx, _ := s2.Begin()
		_, err := tx.Get(f.tbl, key2)
		blockedFor = time.Since(start)
		tx.Abort()
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if _, err := batch.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if blockedFor < 40*time.Millisecond {
		t.Errorf("reader blocked only %v; shard lock not effective", blockedFor)
	}
}
