package fault_test

import (
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/cluster"
	"remus/internal/core"
	"remus/internal/fault"
	"remus/internal/mvcc"
)

// newOracleChaosCluster is the bank fixture on a cluster that actually
// exercises the oracle fault sites: a replicated primary/standby GTS with
// leased timestamp allocation on every node. The registry is threaded into
// the leased oracles (SiteLeaseRefresh), the transaction managers
// (SiteCommitPublish) and the oracle group itself (SiteHWMPersist
// on every durable mark write, SiteFailover inside takeovers,
// SiteStaleLeaseReject at the fencing check). Batch is kept small so the
// hwm-persist site fires every refresh or two instead of once per 1024
// grants.
func newOracleChaosCluster(t *testing.T, reg *fault.Registry) *chaosCluster {
	t.Helper()
	store := mvcc.DefaultConfig()
	store.LockTimeout = 2 * time.Second
	store.PrepareWaitTimeout = 2 * time.Second
	c := cluster.New(cluster.Config{
		Nodes:     chaosNodes,
		Scheme:    cluster.GTS,
		Store:     store,
		LeaseSize: 64,
		Faults:    reg,
		OracleHA: &clock.HAConfig{
			Replicas:  2,
			Batch:     64,
			Heartbeat: 2 * time.Millisecond,
			Misses:    3,
		},
	})
	t.Cleanup(c.Close)
	tbl, err := c.CreateTable("bank", chaosShards, 0, func(int) base.NodeID { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	s, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	var rows []cluster.KV
	for i := 0; i < chaosAccounts; i++ {
		rows = append(rows, cluster.KV{Key: accountKey(i), Value: base.Value(strconv.Itoa(chaosBalance))})
	}
	if err := tx.BatchInsert(tbl, rows); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	return &chaosCluster{c: c, tbl: tbl}
}

// superviseOracle is the chaos harness' repair crew for the oracle group: it
// revives any replica that stays crashed longer than `after`, bounding every
// stacked-failure window (standby killed mid-takeover, new primary killed at
// the fencing check) so the cluster always regains a grantable primary and
// the progress assertions terminate. Callers stop it via t.Cleanup so it
// outlives the final verify scan, which needs timestamps too.
func superviseOracle(g *clock.ReplicatedGTS, every, after time.Duration) (stop func()) {
	stopCh := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		down := make(map[int]time.Time)
		ticker := time.NewTicker(every)
		defer ticker.Stop()
		for {
			select {
			case <-stopCh:
				return
			case <-ticker.C:
			}
			for i := 0; i < g.Replicas(); i++ {
				r := g.Replica(i)
				if !r.Crashed() {
					delete(down, i)
					continue
				}
				if first, seen := down[i]; !seen {
					down[i] = time.Now()
				} else if time.Since(first) > after {
					r.Recover()
					delete(down, i)
				}
			}
		}
	}()
	return func() {
		close(stopCh)
		wg.Wait()
	}
}

// oracleStandby returns the first live non-primary replica, nil when none.
func oracleStandby(g *clock.ReplicatedGTS) *clock.Replica {
	prim := g.Primary()
	for i := 0; i < g.Replicas(); i++ {
		if r := g.Replica(i); r != prim && !r.Crashed() {
			return r
		}
	}
	return nil
}

// TestChaosCrashAtOracleSites sweeps every oracle failpoint — lease-refresh,
// commit-publish, and the three failover sites (hwm-persist, failover,
// stale-lease-reject) — during a live migration over bank transfers, on a
// cluster where those sites actually fire. Victims per site: crash the
// migration source, crash the destination, and crash the oracle itself (the
// primary mid-persist, the standby mid-takeover, the new primary at the
// fencing check). The commit-publish/crash-src run is the pinned regression
// for a crash between a commit's durable record and its publication: the
// decision is final, so recovery must neither lose nor duplicate its money. The
// failover and stale-lease-reject sites only fire once a takeover is in
// flight, so those runs kill the oracle primary shortly after the migration
// starts; the supervisor revives stacked oracle crashes so progress resumes.
func TestChaosCrashAtOracleSites(t *testing.T) {
	// needsFailover marks the sites that only fire during or after a
	// standby takeover; their schedules induce one by killing the oracle
	// primary mid-lease.
	needsFailover := map[fault.Site]bool{
		fault.SiteFailover:         true,
		fault.SiteStaleLeaseReject: true,
	}
	for _, site := range fault.OracleSites() {
		for _, victim := range []string{"crash-src", "crash-dst", "crash-oracle"} {
			t.Run(fmt.Sprintf("%s/%s", site, victim), func(t *testing.T) {
				reg := fault.NewRegistry(1)
				cc := newOracleChaosCluster(t, reg)
				g := cc.c.OracleGroup()
				t.Cleanup(superviseOracle(g, 10*time.Millisecond, 50*time.Millisecond))

				action := fault.Action{Err: fault.ErrInjected, Once: true}
				switch victim {
				case "crash-oracle":
					switch site {
					case fault.SiteFailover:
						// The takeover is the standby's: kill it mid-takeover,
						// stacking a second oracle failure on the first.
						action.Do = func() {
							go func() {
								if s := oracleStandby(g); s != nil {
									s.Crash()
								}
							}()
						}
					default:
						// Kill the nominal primary at the site (mid-persist;
						// or, at the fencing check, the freshly promoted one).
						action.Do = func() { go g.Primary().Crash() }
					}
				default:
					id := base.NodeID(1)
					if victim == "crash-dst" {
						id = 2
					}
					crash := cc.c.Node(id).Crash
					// Every oracle site can fire inside Manager.Begin, which
					// holds the active-set mutex that Crash's ActiveTxns scan
					// needs — crash from the side, as a real node failure
					// would happen, instead of self-deadlocking. (Commit-publish
					// fires outside that lock and keeps the synchronous crash
					// of the pinned regression.)
					if site == fault.SiteCommitPublish {
						action.Do = crash
					} else {
						action.Do = func() { go crash() }
					}
				}
				reg.Arm(site, action)

				var induceWG sync.WaitGroup
				if needsFailover[site] {
					induceWG.Add(1)
					go func() {
						defer induceWG.Done()
						time.Sleep(15 * time.Millisecond)
						g.Primary().Crash()
					}()
				}

				ctrl := core.NewController(cc.c, chaosOpts(reg, 1))
				// Read the group before any load runs: the cluster-threaded
				// sites can crash node 1 as soon as transfers start, and the
				// placement read goes through node 1.
				group := cc.c.ShardsOn(1)
				stop := cc.startTransfers(t, 1, 3)
				// The cluster-threaded sites can crash a node before the
				// migration even plans (Plan errors skip the recovery loop);
				// revive and re-initiate, as an operator would.
				var err error
				for attempt := 0; attempt < 3; attempt++ {
					if _, err = ctrl.MigrateWithRecovery(group, 2); err == nil {
						break
					}
					for _, n := range cc.c.Nodes() {
						if n.Crashed() {
							n.Recover()
						}
					}
				}
				stop()
				induceWG.Wait()
				if needsFailover[site] {
					// The armed action fires inside the takeover; wait for one
					// to finish so the crash it launches has been scheduled.
					waitUntil(t, 5*time.Second, func() bool { return g.Failovers() >= 1 }, "induced takeover")
				}
				if site == fault.SiteStaleLeaseReject {
					// This site fires at the first stale-epoch refresh after
					// the takeover, which may not come until after the load
					// stopped. Drive begins through node 3 until it has fired
					// so the crash it launches lands before the checks below.
					s, cerr := cc.c.Connect(chaosNodes)
					if cerr != nil {
						t.Fatal(cerr)
					}
					waitUntil(t, 5*time.Second, func() bool {
						if tx, berr := s.Begin(); berr == nil {
							tx.Abort()
						}
						return reg.Fired(site) >= 1
					}, "stale-epoch refresh")
				}
				// The last possible site firing is behind us; give its async
				// crash a beat to land, then revive the data nodes — the
				// invariant checks need to read, and late crashes (after
				// MigrateWithRecovery already returned) have no other reviver.
				time.Sleep(10 * time.Millisecond)
				for _, n := range cc.c.Nodes() {
					if n.Crashed() {
						n.Recover()
					}
				}
				if err != nil {
					t.Fatalf("site %s, %s: migration unrecovered: %v", site, victim, err)
				}
				for _, id := range group {
					if owner, _ := cc.c.OwnerOf(id); owner != 2 {
						t.Fatalf("site %s, %s: shard %v owner = %v, want destination", site, victim, id, owner)
					}
				}
				if site == fault.SiteCommitPublish && reg.Fired(site) == 0 {
					// Every commit evaluates this site; not firing means the
					// sweep tested nothing.
					t.Fatalf("site %s, %s: never fired", site, victim)
				}
				cc.verify(t, fmt.Sprintf("site %s, %s", site, victim))

				// Eventual progress through the surviving oracle: fresh
				// transfers must still commit after the dust settles.
				if !cc.progress(t, 20, time.Second) {
					t.Fatalf("site %s, %s: no committed transfers after the oracle chaos settled", site, victim)
				}
			})
		}
	}
}

// TestChaosOracleClusterCleanMigration is the no-fault control for the same
// replicated/leased cluster: a live migration under transfer load with
// nothing armed must preserve every invariant (separates "leases or the HA
// oracle broke migration" from "crash recovery broke migration" when the
// sweep above fails).
func TestChaosOracleClusterCleanMigration(t *testing.T) {
	reg := fault.NewRegistry(1)
	cc := newOracleChaosCluster(t, reg)
	ctrl := core.NewController(cc.c, chaosOpts(reg, 1))
	stop := cc.startTransfers(t, 1, 3)
	group := cc.c.ShardsOn(1)
	_, err := ctrl.MigrateWithRecovery(group, 2)
	stop()
	if err != nil {
		t.Fatalf("clean migration on replicated-oracle cluster failed: %v", err)
	}
	cc.verify(t, "oracle clean migration")
}

// TestChaosOracleMidLeaseKills kills the oracle primary at randomized
// mid-lease moments — no migration, pure transfer load — and asserts the
// failover machinery alone: the cluster resumes allocating through the
// standby, committed transfers keep the balance invariant, and timestamps
// never repeat or regress (any regression would surface as an SI anomaly in
// verify's single-snapshot scan).
func TestChaosOracleMidLeaseKills(t *testing.T) {
	kills := 4
	if testing.Short() {
		kills = 2
	}
	reg := fault.NewRegistry(1)
	cc := newOracleChaosCluster(t, reg)
	g := cc.c.OracleGroup()
	t.Cleanup(superviseOracle(g, 5*time.Millisecond, 30*time.Millisecond))

	stop := cc.startTransfers(t, 1, 4)
	for i := 0; i < kills; i++ {
		// Let the clients burn through mid-lease state, then kill whoever is
		// primary right now; the supervisor revives it after the standby's
		// takeover, ready to be the standby of the next round.
		time.Sleep(time.Duration(13+7*i) * time.Millisecond)
		g.Primary().Crash()
		waitUntil(t, 5*time.Second, func() bool { return g.Failovers() >= uint64(i+1) },
			fmt.Sprintf("failover %d", i+1))
	}
	stop()
	if got := g.Failovers(); got < uint64(kills) {
		t.Fatalf("Failovers = %d, want >= %d", got, kills)
	}
	cc.verify(t, "mid-lease oracle kills")
	if !cc.progress(t, 20, time.Second) {
		t.Fatal("no committed transfers after the last failover")
	}
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// progress reports whether at least `want` fresh transfers commit within d —
// the eventual-progress assertion of the oracle chaos runs.
func (cc *chaosCluster) progress(t *testing.T, want int, d time.Duration) bool {
	t.Helper()
	s, err := cc.c.Connect(chaosNodes)
	if err != nil {
		t.Fatal(err)
	}
	committed := 0
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) && committed < want {
		tx, err := s.Begin()
		if err != nil {
			continue
		}
		if _, err := tx.Get(cc.tbl, accountKey(committed%chaosAccounts)); err != nil {
			tx.Abort()
			continue
		}
		if _, err := tx.Commit(); err == nil {
			committed++
		}
	}
	return committed >= want
}
