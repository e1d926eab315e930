package cluster

import (
	"fmt"
	"sync"
	"testing"

	"remus/internal/base"
	"remus/internal/clock"
)

// TestLeaseRefreshesPerTxnMultiNode guards the lease-refresh ratio that
// BENCHMARK.json's traced multi_lan run reports as
// clock.lease_refreshes_per_ktxn. On a 3-node leased-GTS cluster over a free
// network, clients on two coordinators run multi_lan-shaped 2PC
// transactions: 2 reads and 2 updates on two nodes. A transaction draws
// about five timestamps across three nodes, so 32-wide leases should cost a
// small fraction of a refresh per transaction — as long as a peer's
// timestamp does not end the local lease. With one disjoint range per node
// every Observe of a later range discarded the window, about 1.8 refreshes
// per transaction.
func TestLeaseRefreshesPerTxnMultiNode(t *testing.T) {
	c := New(Config{Nodes: 3, Scheme: GTS, LeaseSize: 32})
	tbl, err := c.CreateTable("kv", 12, 0, func(i int) base.NodeID { return base.NodeID(i%3 + 1) })
	if err != nil {
		t.Fatal(err)
	}
	const perNode = 16
	keys := map[base.NodeID][]base.Key{}
	for i := uint64(0); len(keys[1]) < perNode || len(keys[2]) < perNode || len(keys[3]) < perNode; i++ {
		k := base.EncodeUint64Key(i)
		owner, err := c.OwnerOf(tbl.ShardOf(k))
		if err != nil {
			t.Fatal(err)
		}
		if len(keys[owner]) < perNode {
			keys[owner] = append(keys[owner], k)
		}
	}
	load := mustSession(t, c, 1)
	tx, err := load.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, ks := range keys {
		for _, k := range ks {
			if err := tx.Insert(tbl, k, base.Value("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	refreshes := func() (n uint64) {
		for _, nd := range c.Nodes() {
			n += nd.Oracle().(*clock.LeasedOracle).Refreshes()
		}
		return n
	}
	before := refreshes()

	// Four clients, two per coordinator. Client i owns key slot i of each
	// node, so transactions never conflict and every one commits.
	const clients, perClient = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.Connect(base.NodeID(i%2 + 1))
			if err != nil {
				errs <- err
				return
			}
			for j := 0; j < perClient; j++ {
				// Two participants: node 1 and, alternately, node 2 or 3.
				away := base.NodeID(j%2 + 2)
				tx, err := s.Begin()
				if err != nil {
					errs <- err
					return
				}
				other := func(n base.NodeID) base.Key { return keys[n][(i+j+1)%clients] }
				for _, n := range []base.NodeID{1, away} {
					if _, err := tx.Get(tbl, other(n)); err != nil {
						errs <- err
						return
					}
				}
				for _, n := range []base.NodeID{1, away} {
					if err := tx.Update(tbl, keys[n][i], base.Value(fmt.Sprint(j))); err != nil {
						errs <- err
						return
					}
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

	txns := float64(clients * perClient)
	perTxn := float64(refreshes()-before) / txns
	t.Logf("lease refreshes per transaction: %.3f", perTxn)
	if perTxn > 0.3 {
		t.Fatalf("%.3f lease refreshes per transaction, want <= 0.3: peer timestamps are discarding the local lease", perTxn)
	}
}
