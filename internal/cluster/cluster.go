// Package cluster wires elastic nodes into a shared-nothing distributed
// database (§2.1): a control plane (GTS sequencer), a catalog of sharded
// tables, client sessions with private shard map caches, and distributed
// transactions committed with 2PC under snapshot isolation.
package cluster

import (
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/fault"
	"remus/internal/mvcc"
	"remus/internal/node"
	"remus/internal/obs"
	"remus/internal/shard"
	"remus/internal/simnet"
	"remus/internal/storage"
)

// TimestampScheme selects the timestamp-ordering protocol (§2.2).
type TimestampScheme string

const (
	// GTS uses the centralized sequencer on the control plane.
	GTS TimestampScheme = "gts"
	// DTS uses per-node hybrid logical clocks.
	DTS TimestampScheme = "dts"
)

// Config describes a cluster.
type Config struct {
	// Nodes is the number of elastic nodes created up front.
	Nodes int
	// Scheme selects GTS or DTS (default DTS, as in the paper's evaluation).
	Scheme TimestampScheme
	// Net configures the interconnect (zero = free network for tests).
	Net simnet.Config
	// Skew returns the physical clock skew of node i under DTS (may be nil).
	Skew func(i int) time.Duration
	// Store tunes MVCC stores; zero value uses mvcc.DefaultConfig.
	Store mvcc.Config
	// Recorder, if non-nil, is installed on the interconnect and on every
	// node's transaction manager (including nodes added later by AddNode).
	Recorder obs.Recorder
	// LeaseSize, under GTS, makes every node lease this many timestamps per
	// sequencer round trip (clock.LeasedOracle) instead of one round trip per
	// timestamp. On the in-process sequencer leases are interleaved: node i
	// draws the timestamps of residue class i-1 of a block shared by every
	// node, so a peer's timestamp does not end the local lease (OracleHA
	// leases stay contiguous ranges). Values <= 1 keep the per-request
	// GTSClient protocol. Ignored under DTS.
	LeaseSize int
	// Faults, if non-nil, is threaded into the leased oracles (the
	// fault.SiteLeaseRefresh site) and every node's transaction manager
	// (fault.SiteCommitPublish).
	Faults *fault.Registry
	// OracleHA, when non-nil under GTS, replaces the in-process sequencer
	// with a replicated primary/standby oracle group (clock.ReplicatedGTS):
	// durable fenced leases, standby takeover, and per-node clients that
	// retry through failovers. Zero fields of the config take clock's
	// defaults; Net, Faults and Recorder are filled from the cluster's own
	// unless already set. The group's HWM store defaults to the cluster's
	// durable storage (<Storage.Dir>/oracle) when Storage is enabled, an
	// in-memory register otherwise. Ignored under DTS.
	OracleHA *clock.HAConfig
	// Storage, when Storage.Dir is set, gives every node durable storage
	// under <Dir>/node-<id>: a segmented on-disk WAL behind the in-memory
	// log plus checkpoint files. A node whose directory already holds data
	// is recovered from disk (latest checkpoint + WAL tail) when it is
	// added. Empty Dir keeps the cluster purely in-memory.
	Storage storage.Config
}

// leaseStride is the stride of the cluster's in-process sequencer: the
// number of node slots interleaved in one lease block. It must be at least
// the node count of any cluster that leases timestamps from it (the repo
// builds at most five nodes: four plus a scale-out); AddNode checks it. The
// replicated oracle keeps stride 1 (contiguous leases).
const leaseStride = 8

// Cluster is the whole database.
type Cluster struct {
	cfg Config
	net *simnet.Network
	gts *clock.GTS
	src clock.TimeSource

	oracleHA    *clock.ReplicatedGTS
	oracleStore *storage.OracleStore

	mu      sync.RWMutex
	nodes   map[base.NodeID]*node.Node
	nodeIDs []base.NodeID
	storage map[base.NodeID]*storage.NodeStorage

	catMu     sync.RWMutex
	tables    map[base.TableID]*shard.Table
	byName    map[string]*shard.Table
	nextTable base.TableID
	nextShard base.ShardID
}

// New builds a cluster with cfg.Nodes nodes.
func New(cfg Config) *Cluster {
	if cfg.Scheme == "" {
		cfg.Scheme = DTS
	}
	if cfg.Store == (mvcc.Config{}) {
		cfg.Store = mvcc.DefaultConfig()
	}
	c := &Cluster{
		cfg:       cfg,
		net:       simnet.New(cfg.Net),
		gts:       clock.NewStridedGTS(leaseStride),
		src:       clock.WallClock(),
		nodes:     make(map[base.NodeID]*node.Node),
		storage:   make(map[base.NodeID]*storage.NodeStorage),
		tables:    make(map[base.TableID]*shard.Table),
		byName:    make(map[string]*shard.Table),
		nextTable: 1,
		nextShard: 1,
	}
	if cfg.Recorder != nil {
		c.net.SetRecorder(cfg.Recorder)
	}
	if cfg.Scheme == GTS && cfg.OracleHA != nil {
		c.setupOracleHA()
	}
	for i := 0; i < cfg.Nodes; i++ {
		c.AddNode()
	}
	return c
}

// setupOracleHA opens the replicated oracle group. AddNode has no error
// return and New follows it; an unopenable oracle store means the control
// plane's disk is unusable, which is fatal (the setupStorage precedent).
func (c *Cluster) setupOracleHA() {
	ha := *c.cfg.OracleHA
	if ha.Net == nil {
		ha.Net = c.net
	}
	if ha.Faults == nil {
		ha.Faults = c.cfg.Faults
	}
	if ha.Recorder == nil {
		ha.Recorder = c.cfg.Recorder
	}
	if ha.Store == nil && c.cfg.Storage.Enabled() {
		st, err := storage.OpenOracleStore(filepath.Join(c.cfg.Storage.Dir, "oracle"))
		if err != nil {
			panic(fmt.Sprintf("cluster: oracle store: %v", err))
		}
		c.oracleStore = st
		ha.Store = st
	}
	g, err := clock.OpenReplicated(ha)
	if err != nil {
		panic(fmt.Sprintf("cluster: replicated oracle: %v", err))
	}
	c.oracleHA = g
}

// OracleGroup returns the replicated oracle group, nil when the cluster runs
// the in-process sequencer (chaos tests and the failover bench crash and
// recover its replicas through this).
func (c *Cluster) OracleGroup() *clock.ReplicatedGTS { return c.oracleHA }

// Close releases cluster-held background resources: the replicated oracle's
// failure monitor and its durable store. Clusters without an HA oracle need
// no Close.
func (c *Cluster) Close() {
	if c.oracleHA != nil {
		c.oracleHA.Close()
	}
	if c.oracleStore != nil {
		c.oracleStore.Close()
	}
}

// Net returns the interconnect (byte/message accounting).
func (c *Cluster) Net() *simnet.Network { return c.net }

// Scheme reports the timestamp scheme in force.
func (c *Cluster) Scheme() TimestampScheme { return c.cfg.Scheme }

// AddNode creates a new elastic node (scale-out) and returns it. The new
// node receives a copy of the current shard map.
func (c *Cluster) AddNode() *node.Node {
	c.mu.Lock()
	id := base.NodeID(len(c.nodeIDs) + 1)
	var oracle clock.Oracle
	if c.cfg.Scheme == GTS {
		if c.oracleHA != nil {
			// The per-node client pays the simulated network itself (its
			// endpoint round trips are partition- and crash-visible), so the
			// leased oracle gets no extra delay hook. LeaseSize <= 1 keeps
			// the per-request protocol, one grant per timestamp.
			oracle = clock.NewLeasedOracleFrom(clock.NewOracleClient(c.oracleHA, id), nil, c.cfg.LeaseSize, c.cfg.Faults)
		} else if c.cfg.LeaseSize > 1 {
			if int(id) > leaseStride {
				c.mu.Unlock()
				panic(fmt.Sprintf("cluster: node %v exceeds the %d lease slots of the timestamp sequencer", id, leaseStride))
			}
			oracle = clock.NewLeasedOracleFrom(c.gts.Slot(int(id)-1), func() { c.net.RoundTrip(16) }, c.cfg.LeaseSize, c.cfg.Faults)
		} else {
			oracle = clock.NewGTSClient(c.gts, func() { c.net.RoundTrip(16) })
		}
	} else {
		var skew time.Duration
		if c.cfg.Skew != nil {
			skew = c.cfg.Skew(int(id) - 1)
		}
		oracle = clock.NewHLC(c.src, skew)
	}
	n := node.New(id, c.net, oracle, c.cfg.Store)
	if c.cfg.Recorder != nil {
		n.SetRecorder(c.cfg.Recorder)
	}
	n.Manager().SetFaults(c.cfg.Faults)
	c.nodes[id] = n
	c.nodeIDs = append(c.nodeIDs, id)
	var donor *node.Node
	for _, other := range c.nodeIDs[:len(c.nodeIDs)-1] {
		donor = c.nodes[other]
		break
	}
	c.mu.Unlock()

	if c.cfg.Storage.Enabled() {
		c.setupStorage(n)
	}

	// Seed the new node's shard map from an existing node's current view.
	if donor != nil {
		c.catMu.RLock()
		tables := make([]*shard.Table, 0, len(c.tables))
		for _, t := range c.tables {
			tables = append(tables, t)
		}
		c.catMu.RUnlock()
		snap := donor.Oracle().StartTS()
		for _, t := range tables {
			for i := 0; i < t.NumShards; i++ {
				id := t.FirstShard + base.ShardID(i)
				if d, _, err := donor.ReadMapRow(snap, id); err == nil {
					n.InitMapRow(d)
				}
			}
		}
	}
	return n
}

// Node returns a node by id.
func (c *Cluster) Node(id base.NodeID) *node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.nodes[id]
}

// Nodes returns all nodes ordered by id.
func (c *Cluster) Nodes() []*node.Node {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*node.Node, 0, len(c.nodeIDs))
	ids := append([]base.NodeID(nil), c.nodeIDs...)
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out = append(out, c.nodes[id])
	}
	return out
}

// Tables lists the catalog.
func (c *Cluster) Tables() []*shard.Table {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	out := make([]*shard.Table, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Table finds a table by name.
func (c *Cluster) Table(name string) (*shard.Table, bool) {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	t, ok := c.byName[name]
	return t, ok
}

// TableByID finds a table by id.
func (c *Cluster) TableByID(id base.TableID) (*shard.Table, bool) {
	c.catMu.RLock()
	defer c.catMu.RUnlock()
	t, ok := c.tables[id]
	return t, ok
}

// CreateTable registers a sharded table, places its shards with the
// placement function (shard index -> node id; nil round-robins) and installs
// the initial shard map rows on every node.
func (c *Cluster) CreateTable(name string, numShards, prefixLen int, placement func(i int) base.NodeID) (*shard.Table, error) {
	if numShards <= 0 {
		return nil, fmt.Errorf("cluster: table %q: shards must be positive", name)
	}
	c.catMu.Lock()
	if _, dup := c.byName[name]; dup {
		c.catMu.Unlock()
		return nil, fmt.Errorf("cluster: table %q already exists", name)
	}
	t := &shard.Table{
		ID:         c.nextTable,
		Name:       name,
		NumShards:  numShards,
		PrefixLen:  prefixLen,
		FirstShard: c.nextShard,
	}
	c.nextTable++
	c.nextShard += base.ShardID(numShards)
	c.tables[t.ID] = t
	c.byName[name] = t
	c.catMu.Unlock()

	nodes := c.Nodes()
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: no nodes")
	}
	for i := 0; i < numShards; i++ {
		var owner base.NodeID
		if placement != nil {
			owner = placement(i)
		} else {
			owner = nodes[i%len(nodes)].ID()
		}
		if c.Node(owner) == nil {
			return nil, fmt.Errorf("cluster: placement of shard %d on unknown %v", i, owner)
		}
		id := t.FirstShard + base.ShardID(i)
		c.Node(owner).AddShard(id, t.ID, node.PhaseOwned)
		d := shard.Desc{ID: id, Table: t.ID, Range: t.Range(i), Node: owner}
		for _, n := range nodes {
			n.InitMapRow(d)
		}
	}
	return t, nil
}

// OldestActiveTS returns the oldest transaction snapshot in use anywhere in
// the cluster — the global vacuum horizon (PostgreSQL's global xmin).
func (c *Cluster) OldestActiveTS() base.Timestamp {
	oldest := base.TsMax
	for _, n := range c.Nodes() {
		if ts := n.Manager().OldestActiveStartTS(); ts < oldest {
			oldest = ts
		}
	}
	return oldest
}

// Vacuum prunes version chains on every node using the cluster-wide horizon,
// backed off by a safety slack that covers transactions between snapshot
// acquisition and participant registration. Returns reclaimed version count.
func (c *Cluster) Vacuum(slack time.Duration) int {
	horizon := c.OldestActiveTS()
	if horizon == base.TsMax {
		now := c.Nodes()[0].Oracle().Now()
		horizon = now
	}
	if slack > 0 && c.cfg.Scheme != GTS {
		us := uint64(slack.Microseconds())
		if horizon.Physical() > us {
			horizon = base.HLC(horizon.Physical()-us, 0)
		}
	}
	total := 0
	for _, n := range c.Nodes() {
		for _, id := range n.Shards() {
			if store, ok := n.Store(id); ok {
				total += store.Vacuum(horizon)
			}
		}
	}
	return total
}

// OwnerOf reads the current owner of a shard from a node's map (latest
// committed placement; monitoring/migration use).
func (c *Cluster) OwnerOf(id base.ShardID) (base.NodeID, error) {
	n := c.Nodes()[0]
	d, _, err := n.ReadMapRow(base.TsMax, id)
	if err != nil {
		return base.NoNode, err
	}
	return d.Node, nil
}

// ShardsOn lists the shard ids whose current placement is the given node, in
// ascending shard order. The order is guaranteed deterministic (and asserted
// by tests): the planner ranks and groups these lists, so a map-iteration
// order here would make rebalancing decisions unreproducible across runs.
func (c *Cluster) ShardsOn(nodeID base.NodeID) []base.ShardID {
	var out []base.ShardID
	for _, t := range c.Tables() {
		for i := 0; i < t.NumShards; i++ {
			id := t.FirstShard + base.ShardID(i)
			if owner, err := c.OwnerOf(id); err == nil && owner == nodeID {
				out = append(out, id)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// ---------------------------------------------------------------------------
// Live load views (planner input).

// ShardLoadEntry is one (node, shard) copy's cumulative access counts. During
// a migration's dual-execution window a shard appears twice — once per copy;
// consumers difference per (node, shard) pair so counts are never conflated
// across copies.
type ShardLoadEntry struct {
	Shard base.ShardID
	Table base.TableID
	Node  base.NodeID
	Phase node.Phase
	Load  shard.LoadSnapshot
}

// ShardLoads returns the cumulative access counters of every shard copy in
// the cluster, ordered by (shard, node). This is the live per-shard load
// view the planner's stats collector samples.
func (c *Cluster) ShardLoads() []ShardLoadEntry {
	var out []ShardLoadEntry
	for _, n := range c.Nodes() {
		for _, e := range n.ShardLoads() {
			out = append(out, ShardLoadEntry{
				Shard: e.Shard, Table: e.Table, Node: n.ID(), Phase: e.Phase, Load: e.Load,
			})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// NodeLoad aggregates the cumulative access counts of one node's live shard
// copies.
type NodeLoad struct {
	Node   base.NodeID
	Shards int
	Load   shard.LoadSnapshot
}

// NodeLoads returns per-node cumulative load, ordered by node id — the live
// per-node view behind `remus-bench -autobalance` reporting and the planner's
// imbalance checks.
func (c *Cluster) NodeLoads() []NodeLoad {
	nodes := c.Nodes()
	out := make([]NodeLoad, 0, len(nodes))
	for _, n := range nodes {
		nl := NodeLoad{Node: n.ID()}
		for _, e := range n.ShardLoads() {
			nl.Shards++
			nl.Load = nl.Load.Add(e.Load)
		}
		out = append(out, nl)
	}
	return out
}
