package main

import (
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/core"
	"remus/internal/shard"
)

// Reproductions of two hazards of the seed code that were found while sizing
// the benchmark and are kept out of its workloads (README.md, known hazards).
// They fail while the hazard is there, so they run only when asked:
//
//	REMUS_HAZARDS=1 go test ./benchmark -run Hazard -v
//
// They build their own cluster and loops; nothing of the gated driver knows
// about them.

const (
	hazardRows     = 100_000
	hazardCounters = 2_000 // the first rows of the table
	hazardFor      = 10 * time.Second
)

// hazardCluster is point_mem's cluster: two nodes, eight shards on node 1,
// every row loaded at sequence 0.
func hazardCluster(t *testing.T) (*cluster.Cluster, *shard.Table, []base.Key) {
	if os.Getenv("REMUS_HAZARDS") == "" {
		t.Skip("set REMUS_HAZARDS=1 to reproduce the known hazards of the seed code")
	}
	c := cluster.New(cluster.Config{Nodes: 2})
	t.Cleanup(c.Close)
	tbl, err := c.CreateTable("hazard", 8, 0, allOn(1))
	if err != nil {
		t.Fatal(err)
	}
	sess, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	rng := newRand(1, 0)
	keys := make([]base.Key, hazardRows)
	for lo := 0; lo < hazardRows; lo += 2000 {
		rows := make([]cluster.KV, 0, 2000)
		for id := lo; id < lo+2000; id++ {
			keys[id] = base.EncodeUint64Key(uint64(id))
			rows = append(rows, cluster.KV{Key: keys[id], Value: makeValue(rng, uint64(id), 0, 100)})
		}
		tx, err := sess.Begin()
		if err != nil {
			t.Fatal(err)
		}
		if err := tx.BatchInsert(tbl, rows); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	return c, tbl, keys
}

// pingPong moves the first four shards between the two nodes back-to-back
// until stop is set, and returns how many migrations completed.
func pingPong(t *testing.T, c *cluster.Cluster, tbl *shard.Table, stop *atomic.Bool) int {
	ctrl := core.NewController(c, core.DefaultOptions())
	group := []base.ShardID{tbl.FirstShard, tbl.FirstShard + 1, tbl.FirstShard + 2, tbl.FirstShard + 3}
	n := 0
	for dst := base.NodeID(2); !stop.Load(); dst = 3 - dst {
		if _, err := ctrl.Migrate(group, dst); err != nil {
			t.Errorf("migration %d: %v", n, err)
			break
		}
		n++
	}
	return n
}

// finalSequences scans the whole table and returns every row's sequence.
func finalSequences(t *testing.T, c *cluster.Cluster, tbl *shard.Table) map[uint64]uint32 {
	sess, err := c.Connect(1)
	if err != nil {
		t.Fatal(err)
	}
	tx, err := sess.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Abort()
	seqs := map[uint64]uint32{}
	err = tx.ScanTable(tbl, func(k base.Key, v base.Value) bool {
		id, _ := base.DecodeUint64Key(k)
		seq, err := parseValue(v, id)
		if err != nil {
			t.Error(err)
		}
		seqs[id] = seq
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return seqs
}

// Two sessions read-modify-write the same rows while their shards migrate.
// Every transaction reports success or an error, yet some counters end short
// of the increments that were acknowledged: lost updates, which snapshot
// isolation forbids (first committer wins).
func TestHazardSharedCounters(t *testing.T) {
	c, tbl, keys := hazardCluster(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	acked := make([][]uint32, 2)
	var commits, aborts [2]uint64
	for i := range 2 {
		acked[i] = make([]uint32, hazardCounters)
		sess, err := c.Connect(base.NodeID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRand(1, uint64(i)+1)
			for !stop.Load() {
				id := rng.Uint64N(hazardCounters)
				tx, err := sess.Begin()
				if err != nil {
					aborts[i]++
					continue
				}
				v, err := tx.Get(tbl, keys[id])
				var seq uint32
				if err == nil {
					seq, err = parseValue(v, id)
				}
				if err == nil {
					err = tx.Update(tbl, keys[id], makeValue(rng, id, seq+1, 100))
				}
				if err != nil {
					tx.Abort()
					aborts[i]++
					continue
				}
				if _, err := tx.Commit(); err != nil {
					aborts[i]++
					continue
				}
				acked[i][id]++
				commits[i]++
			}
		}()
	}
	time.AfterFunc(hazardFor, func() { stop.Store(true) })
	migrations := pingPong(t, c, tbl, &stop)
	wg.Wait()

	seqs := finalSequences(t, c, tbl)
	short, lost := 0, uint32(0)
	for id := range uint64(hazardCounters) {
		if want := acked[0][id] + acked[1][id]; seqs[id] != want {
			short++
			lost += want - seqs[id]
		}
	}
	t.Logf("%d migrations, %d commits, %d aborts", migrations, commits[0]+commits[1], aborts[0]+aborts[1])
	if short > 0 {
		t.Errorf("%d counters are short of their acknowledged increments, %d increments lost", short, lost)
	}
}

// Cluster.Vacuum runs while migrations are in flight. Each session updates
// only its own rows, so no transaction should fail and no row should vanish.
func TestHazardVacuumInMigration(t *testing.T) {
	c, tbl, keys := hazardCluster(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	var commits, failed [2]uint64
	var firstErr [2]error
	for i := range 2 {
		sess, err := c.Connect(base.NodeID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := newRand(1, uint64(i)+1)
			seq := make([]uint32, hazardRows)
			for !stop.Load() {
				id := rng.Uint64N(hazardRows/2)*2 + uint64(i)
				tx, err := sess.Begin()
				if err == nil {
					if rng.Uint32()%2 == 0 {
						_, err = tx.Get(tbl, keys[id])
					} else if err = tx.Update(tbl, keys[id], makeValue(rng, id, seq[id]+1, 100)); err == nil {
						seq[id]++
					}
					if err != nil {
						tx.Abort()
					} else {
						_, err = tx.Commit()
					}
				}
				if err != nil {
					if failed[i]++; firstErr[i] == nil {
						firstErr[i] = err
					}
					continue
				}
				commits[i]++
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			c.Vacuum(10 * time.Millisecond)
			time.Sleep(10 * time.Millisecond)
		}
	}()
	time.AfterFunc(hazardFor, func() { stop.Store(true) })
	migrations := pingPong(t, c, tbl, &stop)
	wg.Wait()

	t.Logf("%d migrations, %d commits", migrations, commits[0]+commits[1])
	if n := failed[0] + failed[1]; n > 0 {
		t.Errorf("%d transactions failed, first: %v / %v", n, firstErr[0], firstErr[1])
	}
	if got := len(finalSequences(t, c, tbl)); got != hazardRows {
		t.Errorf("table holds %d rows, loaded %d", got, hazardRows)
	}
}
