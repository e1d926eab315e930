package cluster

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/node"
	"remus/internal/shard"
)

func newCluster(t *testing.T, nodes int, scheme TimestampScheme) *Cluster {
	t.Helper()
	return New(Config{Nodes: nodes, Scheme: scheme})
}

func mustTable(t *testing.T, c *Cluster, name string, shards int) *shard.Table {
	t.Helper()
	tbl, err := c.CreateTable(name, shards, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustSession(t *testing.T, c *Cluster, id base.NodeID) *Session {
	t.Helper()
	s, err := c.Connect(id)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestCreateTablePlacesShards(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "accounts", 6)
	owned := 0
	for _, n := range c.Nodes() {
		owned += len(n.Shards())
	}
	if owned != 6 {
		t.Fatalf("%d shards placed, want 6", owned)
	}
	// Round-robin: each of the 3 nodes owns 2.
	for _, n := range c.Nodes() {
		if len(n.Shards()) != 2 {
			t.Errorf("%v owns %d shards", n.ID(), len(n.Shards()))
		}
	}
	if _, err := c.CreateTable("accounts", 2, 0, nil); err == nil {
		t.Error("duplicate table name allowed")
	}
	if _, err := c.CreateTable("bad", 0, 0, nil); err == nil {
		t.Error("zero shards allowed")
	}
	if got, ok := c.Table("accounts"); !ok || got != tbl {
		t.Error("Table lookup failed")
	}
	if got, ok := c.TableByID(tbl.ID); !ok || got != tbl {
		t.Error("TableByID lookup failed")
	}
}

func TestSingleNodeTxnRoundTrip(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 6)
	s := mustSession(t, c, 1)
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	key := base.EncodeUint64Key(42)
	if err := tx.Insert(tbl, key, base.Value("hello")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := s.Begin()
	v, err := tx2.Get(tbl, key)
	if err != nil || string(v) != "hello" {
		t.Fatalf("get = %q, %v", v, err)
	}
	tx2.Abort()
}

func TestCrossNodeTxn2PC(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 6)
	s := mustSession(t, c, 1)

	// Find two keys on different nodes.
	var keys []base.Key
	seen := map[base.NodeID]bool{}
	for i := uint64(0); len(keys) < 2 && i < 1000; i++ {
		k := base.EncodeUint64Key(i)
		owner, err := c.OwnerOf(tbl.ShardOf(k))
		if err != nil {
			t.Fatal(err)
		}
		if !seen[owner] {
			seen[owner] = true
			keys = append(keys, k)
		}
	}
	tx, _ := s.Begin()
	for i, k := range keys {
		if err := tx.Insert(tbl, k, base.Value(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if tx.Participants() < 2 {
		t.Fatalf("participants = %d, want >= 2", tx.Participants())
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	// Atomic visibility: a snapshot at cts sees both writes.
	tx2, _ := s.Begin()
	if tx2.StartTS() < cts {
		t.Fatalf("session snapshot %v below previous commit %v", tx2.StartTS(), cts)
	}
	for i, k := range keys {
		v, err := tx2.Get(tbl, k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("get key %d = %q, %v", i, v, err)
		}
	}
	tx2.Abort()
}

func TestAbortRollsBackAllParticipants(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	for i := uint64(0); i < 8; i++ {
		if err := tx.Insert(tbl, base.EncodeUint64Key(i), base.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	tx.Abort()
	tx2, _ := s.Begin()
	for i := uint64(0); i < 8; i++ {
		if _, err := tx2.Get(tbl, base.EncodeUint64Key(i)); !errors.Is(err, base.ErrKeyNotFound) {
			t.Fatalf("key %d visible after abort: %v", i, err)
		}
	}
	tx2.Abort()
}

func TestOpsAfterFinishFail(t *testing.T) {
	c := newCluster(t, 1, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Insert(tbl, base.EncodeUint64Key(1), nil); !errors.Is(err, base.ErrTxnFinished) {
		t.Errorf("insert after commit = %v", err)
	}
	if _, err := tx.Commit(); !errors.Is(err, base.ErrTxnFinished) {
		t.Errorf("double commit = %v", err)
	}
	tx.Abort() // no-op
}

func TestWWConflictAcrossSessions(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	s1 := mustSession(t, c, 1)
	s2 := mustSession(t, c, 2)
	key := base.EncodeUint64Key(7)

	setup, _ := s1.Begin()
	if err := setup.Insert(tbl, key, base.Value("v0")); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	t1, _ := s1.Begin()
	t2, _ := s2.Begin()
	if err := t1.Update(tbl, key, base.Value("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	err := t2.Update(tbl, key, base.Value("b"))
	if !errors.Is(err, base.ErrWWConflict) {
		t.Fatalf("concurrent update = %v, want ww-conflict", err)
	}
	t2.Abort()
}

func TestBatchInsertAcrossNodes(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 6)
	s := mustSession(t, c, 2)
	var rows []KV
	for i := uint64(0); i < 200; i++ {
		rows = append(rows, KV{Key: base.EncodeUint64Key(i), Value: base.Value("payload")})
	}
	tx, _ := s.Begin()
	if err := tx.BatchInsert(tbl, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.Begin()
	count := 0
	if err := tx2.ScanTable(tbl, func(base.Key, base.Value) bool {
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 200 {
		t.Fatalf("scan found %d rows, want 200", count)
	}
	tx2.Abort()
}

func TestScanTableEarlyStop(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	for i := uint64(0); i < 50; i++ {
		if err := tx.Insert(tbl, base.EncodeUint64Key(i), base.Value("v")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.Begin()
	n := 0
	if err := tx2.ScanTable(tbl, func(base.Key, base.Value) bool {
		n++
		return n < 5
	}); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("visited %d, want 5", n)
	}
	tx2.Abort()
}

func TestGTSScheme(t *testing.T) {
	c := newCluster(t, 2, GTS)
	tbl := mustTable(t, c, "kv", 4)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	if err := tx.Insert(tbl, base.EncodeUint64Key(1), base.Value("v")); err != nil {
		t.Fatal(err)
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.Begin()
	if tx2.StartTS() <= cts {
		t.Fatalf("GTS session snapshot %v not above previous commit %v", tx2.StartTS(), cts)
	}
	tx2.Abort()
	if c.Scheme() != GTS {
		t.Error("scheme not GTS")
	}
}

func TestSessionMonotonicReadsDTS(t *testing.T) {
	// Within one session, a committed write is visible to the next txn even
	// under DTS (session-level linearizability, §2.2).
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 6)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(5)
	for i := 0; i < 20; i++ {
		tx, _ := s.Begin()
		val := base.Value(fmt.Sprintf("v%d", i))
		var err error
		if i == 0 {
			err = tx.Insert(tbl, key, val)
		} else {
			err = tx.Update(tbl, key, val)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		check, _ := s.Begin()
		v, err := check.Get(tbl, key)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("iteration %d read %q, %v", i, v, err)
		}
		check.Abort()
	}
}

func TestShardMovedReroutesTransparently(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)

	key := base.EncodeUint64Key(3)
	shardID := tbl.ShardOf(key)
	srcID, err := c.OwnerOf(shardID)
	if err != nil {
		t.Fatal(err)
	}
	dstID := base.NodeID(1)
	if srcID == 1 {
		dstID = 2
	}
	src, dst := c.Node(srcID), c.Node(dstID)

	setup, _ := s.Begin()
	if err := setup.Insert(tbl, key, base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	// Move the shard by hand: copy data, update the map row everywhere via a
	// transaction, retire the source.
	srcStore, _ := src.Store(shardID)
	dstStore := dst.AddShard(shardID, tbl.ID, node.PhaseDestActive)
	if err := srcStore.SnapshotScan(base.TsMax, func(k base.Key, v base.Value) bool {
		dstStore.InstallBootstrap(k, v)
		return true
	}); err != nil {
		t.Fatal(err)
	}
	admin := mustSession(t, c, srcID)
	tm, _ := admin.Begin()
	d := shard.Desc{ID: shardID, Table: tbl.ID, Range: tbl.Range(int(shardID - tbl.FirstShard)), Node: dstID}
	for _, n := range c.Nodes() {
		p := n.Manager().Begin(tm.ID(), tm.StartTS())
		tm.parts[n.ID()] = p
		if err := n.WriteMapRow(p, d); err != nil {
			t.Fatal(err)
		}
	}
	cts, err := tm.Commit()
	if err != nil {
		t.Fatal(err)
	}
	src.DivertSource(shardID, cts)

	// The session's cache still says "source", but the source rejects and
	// the statement reroutes to the destination transparently.
	tx, _ := s.Begin()
	v, err := tx.Get(tbl, key)
	if err != nil || string(v) != "v" {
		t.Fatalf("get after move = %q, %v", v, err)
	}
	tx.Abort()
}

func TestReadThroughRoutesByTxnSnapshot(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(3)
	shardID := tbl.ShardOf(key)

	// Mark read-through; routing must consult the map table per txn.
	for _, n := range c.Nodes() {
		n.ReadThrough().Mark(shardID)
	}
	tx, _ := s.Begin()
	d, err := s.routeShard(tx, tbl, shardID)
	if err != nil {
		t.Fatal(err)
	}
	owner, _ := c.OwnerOf(shardID)
	if d.Node != owner {
		t.Fatalf("read-through routed to %v, owner %v", d.Node, owner)
	}
	tx.Abort()
	for _, n := range c.Nodes() {
		n.ReadThrough().Clear(shardID)
	}
	// Epoch bumped: next Begin refreshes the cache.
	tx2, _ := s.Begin()
	if s.cache.Epoch() != s.coord.ReadThrough().Epoch() {
		t.Error("cache epoch not refreshed at Begin")
	}
	tx2.Abort()
}

func TestConnectUnknownNode(t *testing.T) {
	c := newCluster(t, 1, DTS)
	if _, err := c.Connect(99); err == nil {
		t.Error("connect to unknown node succeeded")
	}
}

func TestCrashedCoordinatorRejectsBegin(t *testing.T) {
	c := newCluster(t, 2, DTS)
	mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	c.Node(1).Crash()
	if _, err := s.Begin(); !errors.Is(err, base.ErrNodeDown) {
		t.Fatalf("begin on crashed coordinator = %v", err)
	}
	c.Node(1).Recover()
	if _, err := s.Begin(); err != nil {
		t.Fatalf("begin after recover = %v", err)
	}
}

func TestAddNodeScaleOut(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	if err := tx.Insert(tbl, base.EncodeUint64Key(1), base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	n3 := c.AddNode()
	if n3.ID() != 3 {
		t.Fatalf("new node id = %v", n3.ID())
	}
	// The new node has a usable shard map and can coordinate transactions.
	s3 := mustSession(t, c, 3)
	tx3, _ := s3.Begin()
	v, err := tx3.Get(tbl, base.EncodeUint64Key(1))
	if err != nil || string(v) != "v" {
		t.Fatalf("get via new node = %q, %v", v, err)
	}
	tx3.Abort()
}

func TestShardsOnAndOwnerOf(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	total := 0
	for _, n := range c.Nodes() {
		total += len(c.ShardsOn(n.ID()))
	}
	if total != 4 {
		t.Fatalf("ShardsOn total = %d", total)
	}
	owner, err := c.OwnerOf(tbl.FirstShard)
	if err != nil || c.Node(owner) == nil {
		t.Fatalf("OwnerOf = %v, %v", owner, err)
	}
	if _, err := c.OwnerOf(9999); err == nil {
		t.Error("OwnerOf unknown shard succeeded")
	}
}

func TestConcurrentSessions(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 6)
	const sessions, txns = 6, 30
	var wg sync.WaitGroup
	errs := make(chan error, sessions*txns)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Connect(base.NodeID(i%3 + 1))
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < txns; j++ {
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				key := base.EncodeUint64Key(uint64(i*1000 + j))
				if err := tx.Insert(tbl, key, base.Value("v")); err != nil {
					errs <- err
					tx.Abort()
					return
				}
				if _, err := tx.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestDTSSkewStaleReadAcrossNodes(t *testing.T) {
	// §2.2: DTS allows stale snapshot reads across sessions on different
	// nodes within clock skew. A session on a node whose clock lags may get
	// a snapshot below another node's commit — but SI is preserved: it sees
	// a consistent (older) view, never a torn one.
	c := New(Config{Nodes: 2, Scheme: DTS, Skew: func(i int) time.Duration {
		if i == 1 {
			return -5 * time.Millisecond
		}
		return 0
	}})
	tbl, err := c.CreateTable("kv", 2, 0, func(i int) base.NodeID { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s1 := mustSession(t, c, 1)
	key := base.EncodeUint64Key(1)
	tx, _ := s1.Begin()
	if err := tx.Insert(tbl, key, base.Value("v")); err != nil {
		t.Fatal(err)
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	s2 := mustSession(t, c, 2) // lagging node
	tx2, _ := s2.Begin()
	if tx2.StartTS() >= cts {
		t.Skip("lagging clock caught up; nothing to assert")
	}
	// The stale snapshot simply doesn't see the newer commit: allowed.
	if _, err := tx2.Get(tbl, key); err != nil && !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("stale read error = %v", err)
	}
	tx2.Abort()
}

func TestLockRowBlocksSecondWriterAcrossSessions(t *testing.T) {
	c := newCluster(t, 1, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(9)
	setup, _ := s.Begin()
	if err := setup.Insert(tbl, key, base.Value("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}
	t1, _ := s.Begin()
	if err := t1.LockRow(tbl, key); err != nil {
		t.Fatal(err)
	}
	s2 := mustSession(t, c, 1)
	t2, _ := s2.Begin()
	done := make(chan error, 1)
	go func() {
		done <- t2.Update(tbl, key, base.Value("x"))
	}()
	select {
	case err := <-done:
		t.Fatalf("writer not blocked by FOR UPDATE lock: %v", err)
	case <-time.After(20 * time.Millisecond):
	}
	t1.Abort()
	if err := <-done; err != nil {
		t.Fatalf("writer after lock release: %v", err)
	}
	t2.Abort()
}

// TestCrossNodeDeadlockResolvesAtOnce crosses two transactions over two
// nodes: each updates its local row, then the other's. No node sees the
// whole cycle, yet wait-die ordering breaks it at once: the older
// transaction's request fails immediately, and the younger one's is granted
// as soon as the older one rolls back.
func TestCrossNodeDeadlockResolvesAtOnce(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	var keys [2]base.Key
	for i, found := uint64(0), 0; found < 2; i++ {
		k := base.EncodeUint64Key(i)
		owner, _ := c.OwnerOf(tbl.ShardOf(k))
		if keys[owner-1] == "" {
			keys[owner-1] = k
			found++
		}
	}
	setup, _ := mustSession(t, c, 1).Begin()
	for _, k := range keys {
		if err := setup.Insert(tbl, k, base.Value("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := setup.Commit(); err != nil {
		t.Fatal(err)
	}

	var txs [2]*Txn
	for i := range txs {
		txs[i], _ = mustSession(t, c, base.NodeID(i+1)).Begin()
		if err := txs[i].Update(tbl, keys[i], base.Value("local")); err != nil {
			t.Fatal(err)
		}
	}
	var errs [2]error
	var took [2]time.Duration
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range txs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			t0 := time.Now()
			errs[i] = txs[i].Update(tbl, keys[1-i], base.Value("remote"))
			took[i] = time.Since(t0)
			if errs[i] != nil {
				txs[i].Abort()
			}
		}()
	}
	close(start)
	wg.Wait()
	failed := 0
	for i, err := range errs {
		if took[i] > 100*time.Millisecond {
			t.Errorf("txn %d's crossing update took %v", i, took[i])
		}
		switch {
		case err == nil:
			if _, err := txs[i].Commit(); err != nil {
				t.Errorf("survivor %d commit: %v", i, err)
			}
		case errors.Is(err, base.ErrWWConflict):
			failed++
		default:
			t.Errorf("txn %d: %v", i, err)
		}
	}
	if failed != 1 {
		t.Fatalf("%d of the two crossing updates failed (%v), want exactly one", failed, errs)
	}
}

func TestValueIsolationFromMutation(t *testing.T) {
	// Values returned by Get must not alias internal storage.
	c := newCluster(t, 1, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(1)
	tx, _ := s.Begin()
	buf := base.Value("orig")
	if err := tx.Insert(tbl, key, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 'X' // caller mutates its buffer after insert
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	tx2, _ := s.Begin()
	v, err := tx2.Get(tbl, key)
	if err != nil || string(v) != "orig" {
		t.Fatalf("stored value aliased caller buffer: %q, %v", v, err)
	}
	tx2.Abort()
}
