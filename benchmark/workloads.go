package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/shard"
	"remus/internal/simnet"
	"remus/internal/storage"
)

// numClients is fixed: the sandbox has two cores, and a third spinning
// goroutine would measure the Go scheduler, not the database.
const numClients = 2

// spec is everything that distinguishes one workload from another. Sizes are
// chosen so that a run fits the driver's time budget (see README.md) while a
// migration of the group still takes tens of milliseconds.
type spec struct {
	name string
	why  string

	nodes     int
	scheme    cluster.TimestampScheme
	leaseSize int
	net       simnet.Config
	durable   bool

	shards    int
	prefixLen int
	placement func(i int) base.NodeID
	group     []int       // indexes of the shards that migrate together
	home      base.NodeID // where the group starts
	away      base.NodeID // where it ping-pongs to

	rows     uint64 // total rows
	perGroup uint64 // rows per key group (1 = single-component keys)
	valueLen int
	warmup   int // transactions per client before the steady window

	// ckptEvery checkpoints the group's owner every so many steady slices and
	// before every migration (durable workloads only).
	ckptEvery int
	// migrateEvery, when set, starts migrations on this period and not
	// back-to-back. Back-to-back checkpoint-and-ship cycles write 4 GB to disk
	// in a 20 s run, and the sandbox's disk slows down by a quarter after a
	// few such runs, which no bound on a metric survives.
	migrateEvery time.Duration
	// quietGroup keeps client writes off the migrating group: on a durable
	// cluster a write that races a migration's start or a fuzzy checkpoint's
	// horizon is lost (README.md, known hazards), so the gated workload
	// migrates a group it only reads.
	quietGroup bool

	plan func(w *workload, cl *client)
}

func allOn(n base.NodeID) func(int) base.NodeID { return func(int) base.NodeID { return n } }

var specs = []spec{
	{
		name:  "point_mem",
		why:   "in-memory point reads and updates: CPU-bound on cluster, node, txn, mvcc, clog, btree and wal; network, clock and disk cost nothing, so their changes must not show here",
		nodes: 2, scheme: cluster.DTS,
		shards: 8, placement: allOn(1), group: []int{0, 1, 2, 3}, home: 1, away: 2,
		rows: 200_000, perGroup: 1, valueLen: 100, warmup: 20_000,
		plan: planPoint(0.5),
	},
	{
		name:  "multi_lan",
		why:   "2PC transactions over a simulated LAN with a leased GTS: latency is round trips through simnet, clock and cluster routing, and mvcc does almost nothing",
		nodes: 3, scheme: cluster.GTS, leaseSize: 32, net: simnet.LAN(),
		shards: 12, placement: func(i int) base.NodeID { return base.NodeID(i%3 + 1) }, group: []int{1, 4, 7, 10}, home: 2, away: 3,
		rows: 150_000, perGroup: 1, valueLen: 100, warmup: 500,
		plan: planMulti,
	},
	{
		name:  "write_durable",
		why:   "1 KB updates on a disk WAL with an fsync per commit, checkpoints under load, checkpoint-shipped migrations of a group that is only read: wal and storage dominate; acked writes must survive a restart",
		nodes: 2, scheme: cluster.DTS, durable: true,
		shards: 8, placement: allOn(1), group: []int{0, 1, 2, 3}, home: 1, away: 2,
		rows: 32_000, perGroup: 1, valueLen: 1024, warmup: 1_000, ckptEvery: 3, quietGroup: true,
		migrateEvery: time.Second / 2,
		plan:         planPoint(0.9),
	},
	{
		name:  "scan_batch_mem",
		why:   "64-row range scans and 8-row write sets on composite keys: works mvcc and btree through ranges and ships 8 change records per transaction, so repl and core validation work hardest here",
		nodes: 2, scheme: cluster.DTS,
		shards: 8, prefixLen: 8, placement: allOn(1), group: []int{0, 1, 2, 3}, home: 1, away: 2,
		rows: 3_200 * 64, perGroup: 64, valueLen: 100, warmup: 5_000,
		plan: planScanBatch,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// toy shrinks a workload for the smoke test: same shape, a fraction of the
// rows and warm-up.
func (s spec) toy() spec {
	s.rows = max(s.rows/50/s.perGroup, 64) * s.perGroup
	s.warmup = max(s.warmup/50, 20)
	return s
}

func (s spec) config(dir string) cluster.Config {
	cfg := cluster.Config{Nodes: s.nodes, Scheme: s.scheme, LeaseSize: s.leaseSize, Net: s.net}
	if s.durable {
		cfg.Storage = storage.Config{Dir: dir}
	}
	return cfg
}

// workload is a spec bound to one cluster: the table, the precomputed keys
// and the classes of units the planners draw from.
type workload struct {
	spec
	tbl      *shard.Table
	keys     []base.Key     // by row id
	groupLo  []base.Key     // scan bounds: key group g covers [groupLo[g], groupLo[g+1])
	groupIDs []base.ShardID // the migrating shard group
	moving   []bool         // by unit: on a shard of the migrating group

	// Per client, classes of the units it owns. own: all of them. pinned: on
	// shards placed on node 1, none of which migrate; roaming: placed
	// elsewhere. One of each per multi_lan transaction guarantees two
	// participants wherever the group currently is. quiet: on shards outside
	// the migrating group; roamingQuiet: both.
	own, pinned, roaming, quiet, roamingQuiet [][]uint64
}

func (s spec) key(id uint64) base.Key {
	if s.perGroup == 1 {
		return base.EncodeUint64Key(id)
	}
	return base.NewKeyEncoder().Uint64(id / s.perGroup).Uint64(id % s.perGroup).Key()
}

// unit returns the key group of row id; with single-component keys every row
// is a group of its own. Ownership, write redirection and the re-read rule
// all work on units, because a batch writes several rows of one group.
func (s spec) unit(id uint64) uint64 { return id / s.perGroup }

// owner returns the client that alone writes unit u: units alternate.
func (s spec) owner(u uint64) int { return int(u % numClients) }

func (s spec) units() uint64 { return s.rows / s.perGroup }

func newWorkload(s spec, tbl *shard.Table) *workload {
	w := &workload{spec: s, tbl: tbl, keys: make([]base.Key, s.rows), moving: make([]bool, s.units())}
	for id := range s.rows {
		w.keys[id] = s.key(id)
	}
	if s.perGroup > 1 {
		w.groupLo = make([]base.Key, s.units()+1)
		for g := range s.units() + 1 {
			w.groupLo[g] = base.NewKeyEncoder().Uint64(g).Uint64(0).Key()
		}
	}
	for _, i := range s.group {
		w.groupIDs = append(w.groupIDs, tbl.FirstShard+base.ShardID(i))
	}
	w.own = make([][]uint64, numClients)
	w.pinned = make([][]uint64, numClients)
	w.roaming = make([][]uint64, numClients)
	w.quiet = make([][]uint64, numClients)
	w.roamingQuiet = make([][]uint64, numClients)
	for u := range s.units() {
		// A key group lies within one shard: the table distributes on the
		// group component of the key.
		c, shard := s.owner(u), tbl.ShardIndex(w.keys[u*s.perGroup])
		w.moving[u] = slices.Contains(s.group, shard)
		w.own[c] = append(w.own[c], u)
		if s.placement(shard) == 1 {
			w.pinned[c] = append(w.pinned[c], u)
		} else {
			w.roaming[c] = append(w.roaming[c], u)
			if !w.moving[u] {
				w.roamingQuiet[c] = append(w.roamingQuiet[c], u)
			}
		}
		if !w.moving[u] {
			w.quiet[c] = append(w.quiet[c], u)
		}
	}
	return w
}

// op is one planned transaction: the planner draws keys and builds values
// before the clock starts, so generating inputs is not on the timed path.
type op struct {
	reads  []uint64 // rows to Get
	scan   int64    // key group to ScanRange, -1 for none
	writes []uint64 // rows to Update
	vals   []base.Value
}

func (o *op) reset() {
	o.reads, o.writes, o.vals, o.scan = o.reads[:0], o.writes[:0], o.vals[:0], -1
}

// write plans an update of an owned row at its next sequence.
func (w *workload) write(cl *client, id uint64) {
	cl.op.writes = append(cl.op.writes, id)
	cl.op.vals = append(cl.op.vals, makeValue(cl.rng, id, cl.ledger.acked[id]+1, w.valueLen))
}

// ownUnit draws a unit to write from all, a class of the client's own units:
// uniformly, but for the units the client may not touch yet (see
// client.wroteInFlight). While the controller asks for it (see bench.migrate),
// and always on a quietGroup workload, it draws from quiet instead, the
// part of the class outside the migrating group.
func (w *workload) ownUnit(cl *client, all, quiet [][]uint64) uint64 {
	if w.quietGroup || cl.holding {
		return pick(cl.rng, quiet[cl.id])
	}
	for {
		if u := pick(cl.rng, all[cl.id]); !cl.wroteInFlight(u) {
			return u
		}
	}
}

// anyUnit draws a unit to read, uniformly over the whole table but for the
// units the client may not touch yet.
func (w *workload) anyUnit(cl *client) uint64 {
	for {
		if u := cl.rng.Uint64N(w.units()); !cl.wroteInFlight(u) {
			return u
		}
	}
}

// planPoint: one Get of any row or one Update of an owned row. Single-row
// units: a unit is a row id.
func planPoint(writeFrac float64) func(*workload, *client) {
	return func(w *workload, cl *client) {
		if cl.rng.Float64() < writeFrac {
			w.write(cl, w.ownUnit(cl, w.own, w.quiet))
		} else {
			cl.op.reads = append(cl.op.reads, w.anyUnit(cl))
		}
	}
}

// planMulti: 80 % read two rows and update two owned rows on different nodes
// (a 2PC commit), 20 % read four rows. Single-row units.
func planMulti(w *workload, cl *client) {
	if cl.rng.Float64() < 0.8 {
		cl.op.reads = append(cl.op.reads, w.anyUnit(cl), w.anyUnit(cl))
		w.write(cl, pick(cl.rng, w.pinned[cl.id]))
		w.write(cl, w.ownUnit(cl, w.roaming, w.roamingQuiet))
	} else {
		for range 4 {
			cl.op.reads = append(cl.op.reads, w.anyUnit(cl))
		}
	}
}

// planScanBatch: scan one whole key group, or update 8 rows of an owned one.
func planScanBatch(w *workload, cl *client) {
	if cl.rng.Float64() < 0.5 {
		cl.op.scan = int64(w.anyUnit(cl))
		return
	}
	g := w.ownUnit(cl, w.own, w.quiet)
	first := cl.rng.Uint64N(w.perGroup)
	for i := range uint64(8) {
		w.write(cl, g*w.perGroup+(first+i)%w.perGroup)
	}
}

func pick(rng *rand.Rand, ids []uint64) uint64 { return ids[rng.IntN(len(ids))] }
