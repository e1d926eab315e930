package cluster

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/shard"
	"remus/internal/simnet"
	"remus/internal/storage"
	"remus/internal/wal"
)

// spreadKeys returns one key per node, in node order, for a table whose
// shards cover every node, after inserting each with value "v0".
func spreadKeys(t testing.TB, c *Cluster, tbl *shard.Table) []base.Key {
	t.Helper()
	keys := make([]base.Key, len(c.Nodes()))
	found := 0
	for i := uint64(0); found < len(keys); i++ {
		k := base.EncodeUint64Key(i)
		owner, err := c.OwnerOf(tbl.ShardOf(k))
		if err != nil {
			t.Fatal(err)
		}
		if idx := int(owner) - 1; keys[idx] == "" {
			keys[idx] = k
			found++
		}
	}
	s, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	tx, _ := s.Begin()
	for _, k := range keys {
		if err := tx.Insert(tbl, k, base.Value("v0")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return keys
}

// readAll begins a transaction on s and reads every key, leaving it open.
func readAll(t testing.TB, s *Session, tbl *shard.Table, keys []base.Key) *Txn {
	t.Helper()
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys {
		if _, err := tx.Get(tbl, k); err != nil {
			t.Fatal(err)
		}
	}
	return tx
}

// gtsRequests sums the sequencer round trips every node's unleased GTS
// client has paid.
func gtsRequests(t *testing.T, c *Cluster) uint64 {
	t.Helper()
	var sum uint64
	for _, n := range c.Nodes() {
		o, ok := n.Oracle().(*clock.GTSClient)
		if !ok {
			t.Fatalf("%v oracle is %T, want an unleased *clock.GTSClient", n.ID(), n.Oracle())
		}
		sum += o.GTSRequests()
	}
	return sum
}

// TestReadOnlyCommitOneRound: a transaction that read on all three nodes
// and wrote nothing commits in one round at its snapshot. Each remote
// participant costs one round trip, and no participant logs a record: a
// transaction that made nothing has nothing to make durable.
func TestReadOnlyCommitOneRound(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 3)
	keys := spreadKeys(t, c, tbl)
	s := mustSession(t, c, 1)

	tx := readAll(t, s, tbl, keys)
	if tx.Participants() != 3 {
		t.Fatalf("transaction touched %d nodes, want 3", tx.Participants())
	}
	before := c.Net().Messages()
	tails := make(map[base.NodeID]wal.LSN)
	for _, n := range c.Nodes() {
		tails[n.ID()] = n.WAL().FlushLSN()
	}
	cts, err := tx.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := c.Net().Messages()-before, uint64(2*2); got != want {
		t.Errorf("read-only commit sent %d messages, want %d (one round trip per remote participant)", got, want)
	}
	if cts != tx.StartTS() {
		t.Errorf("read-only commit returned %v, want its snapshot %v", cts, tx.StartTS())
	}
	for _, n := range c.Nodes() {
		if got := n.Manager().ActiveCount(); got != 0 {
			t.Errorf("%v keeps %d active transactions", n.ID(), got)
		}
		if got := n.WAL().FlushLSN(); got != tails[n.ID()] {
			t.Errorf("%v WAL grew from %d to %d; a read-only commit logs nothing", n.ID(), tails[n.ID()], got)
		}
	}
}

// TestReadOnlyCommitDrawsNoCommitTS: on an unleased GTS cluster a read-only
// commit draws no timestamp at all — no prepare timestamp and no commit
// timestamp — whether it touched one node or three.
func TestReadOnlyCommitDrawsNoCommitTS(t *testing.T) {
	c := newCluster(t, 3, GTS)
	tbl := mustTable(t, c, "kv", 3)
	keys := spreadKeys(t, c, tbl)
	s := mustSession(t, c, 1)
	for _, read := range [][]base.Key{keys, keys[:1]} {
		tx := readAll(t, s, tbl, read)
		before := gtsRequests(t, c)
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
		if got := gtsRequests(t, c) - before; got != 0 {
			t.Errorf("read-only commit on %d nodes drew %d timestamps, want 0", tx.Participants(), got)
		}
	}
}

// TestReadOnlyCommitSyncsNothing: on a durable cluster read-only
// transactions, on one node or on three, issue no fsync, while a write
// still syncs its commit record.
func TestReadOnlyCommitSyncsNothing(t *testing.T) {
	c := New(Config{Nodes: 3, Storage: storage.Config{Dir: t.TempDir()}})
	t.Cleanup(c.CloseStorage)
	tbl := mustTable(t, c, "kv", 3)
	keys := spreadKeys(t, c, tbl)
	s := mustSession(t, c, 1)
	syncs := func() uint64 {
		var sum uint64
		for _, n := range c.Nodes() {
			sum += n.WAL().Syncs()
		}
		return sum
	}
	before := syncs()
	for i := 0; i < 10; i++ {
		for _, read := range [][]base.Key{keys, keys[i%len(keys) : i%len(keys)+1]} {
			if _, err := readAll(t, s, tbl, read).Commit(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got := syncs() - before; got != 0 {
		t.Errorf("20 read-only commits issued %d fsyncs, want 0", got)
	}
	tx, _ := s.Begin()
	if err := tx.Update(tbl, keys[0], base.Value("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := syncs() - before; got == 0 {
		t.Error("a write committed without an fsync on a durable cluster")
	}
}

// TestReadWriteCommitKeepsTwoRounds: one write among the reads restores the
// full protocol for the participant that wrote — a prepare round, a commit
// timestamp, a commit round — while the participants that only read commit
// in the first round and log nothing.
func TestReadWriteCommitKeepsTwoRounds(t *testing.T) {
	for _, scheme := range []TimestampScheme{DTS, GTS} {
		t.Run(string(scheme), func(t *testing.T) {
			c := newCluster(t, 3, scheme)
			tbl := mustTable(t, c, "kv", 3)
			keys := spreadKeys(t, c, tbl)
			tx := readAll(t, mustSession(t, c, 1), tbl, keys)
			if err := tx.Update(tbl, keys[2], base.Value("v1")); err != nil {
				t.Fatal(err)
			}
			before := c.Net().Messages()
			var gtsBefore uint64
			if scheme == GTS {
				gtsBefore = gtsRequests(t, c)
			}
			tails := make(map[base.NodeID]wal.LSN)
			for _, n := range c.Nodes() {
				tails[n.ID()] = n.WAL().FlushLSN()
			}
			cts, err := tx.Commit()
			if err != nil {
				t.Fatal(err)
			}
			if cts <= tx.StartTS() {
				t.Errorf("read-write commit at %v, not after its snapshot %v", cts, tx.StartTS())
			}
			// Node 2 only read: one round trip. Node 3 wrote: two.
			msgs := c.Net().Messages() - before
			switch scheme {
			case DTS:
				if msgs != 2+4 {
					t.Errorf("read-write commit sent %d messages, want %d", msgs, 2+4)
				}
			case GTS:
				// Each timestamp is one sequencer round trip as well.
				if got := gtsRequests(t, c) - gtsBefore; got != 2 {
					t.Errorf("read-write commit drew %d timestamps, want 2 (the writer's prepare, the commit)", got)
				}
				if msgs != 2+4+2*2 {
					t.Errorf("read-write commit sent %d messages, want %d", msgs, 2+4+2*2)
				}
			}
			for _, n := range c.Nodes() {
				grew := n.WAL().FlushLSN() - tails[n.ID()]
				if writer := n.ID() == 3; writer != (grew > 0) {
					t.Errorf("%v WAL grew by %d records (writer %v)", n.ID(), grew, writer)
				}
			}
		})
	}
}

// TestReadOnlyCommitPartitionAborts: a read-only commit whose round trip to
// one participant fails reports the partition and leaves no participant
// active on any node.
func TestReadOnlyCommitPartitionAborts(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 3)
	keys := spreadKeys(t, c, tbl)
	tx := readAll(t, mustSession(t, c, 1), tbl, keys)
	c.Net().InstallFaults(1).Partition(1, 3)
	defer c.Net().ClearFaults()
	if _, err := tx.Commit(); !errors.Is(err, base.ErrUnreachable) {
		t.Fatalf("commit across a partition returned %v, want %v", err, base.ErrUnreachable)
	}
	for _, n := range c.Nodes() {
		if got := n.Manager().ActiveCount(); got != 0 {
			t.Errorf("%v keeps %d active transactions", n.ID(), got)
		}
	}
}

// TestSessionMonotonicAcrossReadOnly: a session's own write stays visible
// to its next transaction when an all-read-only multi-node transaction, which
// commits at its snapshot, runs in between.
func TestSessionMonotonicAcrossReadOnly(t *testing.T) {
	for _, scheme := range []TimestampScheme{DTS, GTS} {
		t.Run(string(scheme), func(t *testing.T) {
			c := newCluster(t, 3, scheme)
			tbl := mustTable(t, c, "kv", 3)
			keys := spreadKeys(t, c, tbl)
			s := mustSession(t, c, 1)
			for i := 0; i < 20; i++ {
				key := keys[i%len(keys)]
				val := base.Value(fmt.Sprintf("v%d", i))
				tx, _ := s.Begin()
				if err := tx.Update(tbl, key, val); err != nil {
					t.Fatal(err)
				}
				if _, err := tx.Commit(); err != nil {
					t.Fatal(err)
				}
				ro := readAll(t, s, tbl, keys)
				if _, err := ro.Commit(); err != nil {
					t.Fatal(err)
				}
				check, _ := s.Begin()
				v, err := check.Get(tbl, key)
				if err != nil || string(v) != string(val) {
					t.Fatalf("iteration %d read %q, %v; want %q", i, v, err, val)
				}
				check.Abort()
			}
		})
	}
}

// TestReadOnlySumsSeeConsistentSnapshots: cross-node transfers run beside
// read-only sessions that sum every account across three nodes over a LAN.
// Every sum, committed in one round at its snapshot, must equal the total.
func TestReadOnlySumsSeeConsistentSnapshots(t *testing.T) {
	transfers, sums := 300, 150
	if testing.Short() {
		transfers, sums = 60, 30
	}
	for _, scheme := range []TimestampScheme{DTS, GTS} {
		t.Run(string(scheme), func(t *testing.T) {
			checkReadOnlySums(t, scheme, transfers, sums)
		})
	}
}

func checkReadOnlySums(t *testing.T, scheme TimestampScheme, transfers, sums int) {
	const (
		perNode = 2
		initial = 100
		workers = 2
	)
	c := New(Config{Nodes: 3, Scheme: scheme, Net: simnet.LAN()})
	tbl := mustTable(t, c, "bank", 3)
	enc := func(v int64) base.Value { return binary.LittleEndian.AppendUint64(nil, uint64(v)) }
	dec := func(v base.Value) int64 { return int64(binary.LittleEndian.Uint64(v)) }

	// perNode accounts on each node.
	var accounts []base.Key
	byNode := map[base.NodeID]int{}
	for i := uint64(0); len(accounts) < 3*perNode; i++ {
		k := base.EncodeUint64Key(i)
		owner, _ := c.OwnerOf(tbl.ShardOf(k))
		if byNode[owner] < perNode {
			byNode[owner]++
			accounts = append(accounts, k)
		}
	}
	load, _ := mustSession(t, c, 1).Begin()
	for _, k := range accounts {
		if err := load.Insert(tbl, k, enc(initial)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := load.Commit(); err != nil {
		t.Fatal(err)
	}
	want := int64(len(accounts) * initial)

	var wg sync.WaitGroup
	var failed atomic.Value
	fail := func(format string, args ...any) { failed.CompareAndSwap(nil, fmt.Sprintf(format, args...)) }
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.Connect(base.NodeID(w%3 + 1))
			if err != nil {
				fail("connect: %v", err)
				return
			}
			for done, r := 0, uint64(w+1); done < transfers && failed.Load() == nil; {
				r = r*6364136223846793005 + 1442695040888963407
				from, to := accounts[r>>33%uint64(len(accounts))], accounts[r>>13%uint64(len(accounts))]
				if from == to {
					continue
				}
				// Transfers lock their rows in either order; wait-die
				// ordering resolves deadlocks that span nodes.
				amount := int64(r%7) + 1
				err := transfer(s, tbl, from, to, amount, enc, dec)
				switch {
				case err == nil:
					done++
				case !errors.Is(err, base.ErrWWConflict) && !errors.Is(err, base.ErrAborted):
					fail("transfer: %v", err)
				}
			}
		}(w)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s, err := c.Connect(base.NodeID(w%3 + 1))
			if err != nil {
				fail("connect: %v", err)
				return
			}
			for i := 0; i < sums && failed.Load() == nil; i++ {
				tx, err := s.Begin()
				if err != nil {
					fail("begin: %v", err)
					return
				}
				var sum int64
				for _, k := range accounts {
					v, err := tx.Get(tbl, k)
					if err != nil {
						fail("sum read: %v", err)
						return
					}
					sum += dec(v)
				}
				cts, err := tx.Commit()
				if err != nil {
					fail("sum commit: %v", err)
					return
				}
				if sum != want || cts != tx.StartTS() {
					fail("sum at snapshot %v = %d, committed at %v; want %d at the snapshot", tx.StartTS(), sum, cts, want)
				}
			}
		}(w)
	}
	wg.Wait()
	if msg := failed.Load(); msg != nil {
		t.Fatal(msg)
	}
}

// transfer moves amount from one account to another in one transaction.
func transfer(s *Session, tbl *shard.Table, from, to base.Key, amount int64, enc func(int64) base.Value, dec func(base.Value) int64) error {
	tx, err := s.Begin()
	if err != nil {
		return err
	}
	fv, err := tx.Get(tbl, from)
	if err == nil {
		var tv base.Value
		if tv, err = tx.Get(tbl, to); err == nil {
			if err = tx.Update(tbl, from, enc(dec(fv)-amount)); err == nil {
				err = tx.Update(tbl, to, enc(dec(tv)+amount))
			}
		}
	}
	if err != nil {
		tx.Abort()
		return err
	}
	_, err = tx.Commit()
	return err
}

// The commit benchmarks run on a free network, so they measure CPU and
// allocations rather than simulated latency. Untimed maintenance (vacuum,
// WAL truncation) every 1024 transactions keeps version chains and logs from
// growing with b.N, as the repository benchmark's per-slice maintenance does.

func benchCommit(b *testing.B, write bool) {
	c := New(Config{Nodes: 3})
	tbl, err := c.CreateTable("kv", 3, 0, nil)
	if err != nil {
		b.Fatal(err)
	}
	keys := spreadKeys(b, c, tbl)
	s, err := c.Connect(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%1024 == 1023 {
			b.StopTimer()
			c.Vacuum(0)
			for _, n := range c.Nodes() {
				n.Checkpoint()
			}
			b.StartTimer()
		}
		tx := readAll(b, s, tbl, keys)
		if write {
			if err := tx.Update(tbl, keys[i%len(keys)], base.Value("v")); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCommitReadOnly3Nodes reads one row on each of three nodes and
// commits.
func BenchmarkCommitReadOnly3Nodes(b *testing.B) { benchCommit(b, false) }

// BenchmarkCommit2PCWrite reads one row on each of three nodes, updates
// one of them and commits through both 2PC rounds.
func BenchmarkCommit2PCWrite(b *testing.B) { benchCommit(b, true) }

// TestSessionSeesOwnWriteAfterCoordinatorSatOut: a session whose node only
// coordinates (its participant logged nothing) writes on a node whose clock
// runs ahead. Its participant sits out the commit round, yet the session's
// next snapshot, drawn on the lagging node, must still see the write: the
// coordinator's oracle drew the commit timestamp, so it is past it.
func TestSessionSeesOwnWriteAfterCoordinatorSatOut(t *testing.T) {
	c := New(Config{Nodes: 3, Scheme: DTS, Skew: func(i int) time.Duration {
		if i == 2 {
			return time.Second // node 3 runs a second ahead
		}
		return 0
	}})
	tbl := mustTable(t, c, "kv", 3)
	keys := spreadKeys(t, c, tbl)
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	if err := tx.Update(tbl, keys[2], base.Value("v1")); err != nil {
		t.Fatal(err)
	}
	if tx.Participants() != 2 {
		t.Fatalf("write touched %d nodes, want 2 (the coordinator and node 3)", tx.Participants())
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	check, _ := s.Begin()
	defer check.Abort()
	if v, err := check.Get(tbl, keys[2]); err != nil || string(v) != "v1" {
		t.Fatalf("the session's next transaction read %q, %v; want its own write v1", v, err)
	}
}
