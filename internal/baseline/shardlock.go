package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/mvcc"
	"remus/internal/shard"
	"remus/internal/txn"
)

// ShardLockCC is the H-store-style partition (shard) locking concurrency
// control Squall runs over (§2.3.2, §4.2: "an equivalent shard locking
// mechanism is implemented on top of MVCC"). Every statement acquires an
// exclusive lock on its shard, held until the transaction finishes. This is
// what makes a batch insert that touches every shard block all concurrent
// OLTP traffic (Figure 6c) and an analytical scan freeze the cluster
// (Figure 7). Shard locks carry no wait-die order (a zero mvcc.Order):
// every request waits, first in, first out, bounded by the timeout.
type ShardLockCC struct {
	timeout time.Duration

	mu     sync.Mutex
	tables map[base.NodeID]*nodeLocks
	handle map[base.NodeID]int

	pseudoXID atomic.Uint64 // lock owners for migration pulls
}

// nodeLocks is one node's shard-lock table. Cleanup registration is tracked
// per node: XIDs are node-local, so a single cluster-wide map would collide
// across nodes and leak locks.
type nodeLocks struct {
	lt         *mvcc.LockTable
	registered sync.Map // base.XID -> struct{}
}

// NewShardLockCC returns an uninstalled shard-lock layer.
func NewShardLockCC(timeout time.Duration) *ShardLockCC {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	cc := &ShardLockCC{
		timeout: timeout,
		tables:  make(map[base.NodeID]*nodeLocks),
		handle:  make(map[base.NodeID]int),
	}
	cc.pseudoXID.Store(1 << 60)
	return cc
}

func lockKey(id base.ShardID) base.Key { return shard.MapKey(id) }

// Install hooks the shard-lock layer into every current node of the cluster.
func (cc *ShardLockCC) Install(c *cluster.Cluster) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, n := range c.Nodes() {
		if _, ok := cc.tables[n.ID()]; ok {
			continue
		}
		nl := &nodeLocks{lt: mvcc.NewLockTable()}
		cc.tables[n.ID()] = nl
		n := n
		cc.handle[n.ID()] = n.AddHook(func(t *txn.Txn, shardID base.ShardID, _ base.Key, _ bool) error {
			return cc.acquireForTxn(nl, t, shardID)
		})
	}
}

// Uninstall removes the hooks (locks held by live transactions drain
// naturally through their cleanups).
func (cc *ShardLockCC) Uninstall(c *cluster.Cluster) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	for _, n := range c.Nodes() {
		if h, ok := cc.handle[n.ID()]; ok {
			n.RemoveHook(h)
			delete(cc.handle, n.ID())
			delete(cc.tables, n.ID())
		}
	}
}

func (cc *ShardLockCC) acquireForTxn(nl *nodeLocks, t *txn.Txn, shardID base.ShardID) error {
	if err := nl.lt.Acquire(lockKey(shardID), t.XID, mvcc.Order{}, cc.timeout); err != nil {
		return fmt.Errorf("shard lock on %v: %w", shardID, base.ErrWWConflict)
	}
	if _, loaded := nl.registered.LoadOrStore(t.XID, struct{}{}); !loaded {
		xid := t.XID
		t.AddCleanup(func() {
			nl.lt.ReleaseAll(xid)
			nl.registered.Delete(xid)
		})
	}
	return nil
}

// table returns the lock table of one node (Squall pulls lock shards on both
// endpoints through it).
func (cc *ShardLockCC) table(id base.NodeID) (*mvcc.LockTable, bool) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	nl, ok := cc.tables[id]
	if !ok {
		return nil, false
	}
	return nl.lt, true
}

// lockShard acquires a shard lock with a pseudo transaction id (migration
// pulls); the returned release function frees it.
func (cc *ShardLockCC) lockShard(nodeID base.NodeID, shardID base.ShardID) (func(), error) {
	lt, ok := cc.table(nodeID)
	if !ok {
		return func() {}, nil // CC not installed on this node: nothing to lock
	}
	xid := base.XID(cc.pseudoXID.Add(1))
	if err := lt.Acquire(lockKey(shardID), xid, mvcc.Order{}, cc.timeout); err != nil {
		return nil, fmt.Errorf("pull lock on %v@%v: %w", shardID, nodeID, err)
	}
	return func() { lt.ReleaseAll(xid) }, nil
}
