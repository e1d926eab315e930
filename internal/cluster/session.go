package cluster

import (
	"errors"
	"fmt"
	"sync"

	"remus/internal/base"
	"remus/internal/mvcc"
	"remus/internal/node"
	"remus/internal/shard"
	"remus/internal/txn"
)

// Session is one client connection. The node it connects to acts as the
// coordinator for its transactions (§2.1); the session owns a private
// ordered shard map cache (§3.5.1).
type Session struct {
	c     *Cluster
	coord *node.Node
	cache *shard.Cache
}

// Connect opens a session against the given node and warms its shard map
// cache from that node's map table.
func (c *Cluster) Connect(nodeID base.NodeID) (*Session, error) {
	n := c.Node(nodeID)
	if n == nil {
		return nil, fmt.Errorf("cluster: connect to unknown %v", nodeID)
	}
	s := &Session{c: c, coord: n, cache: shard.NewCache()}
	s.refreshCache(n.Oracle().StartTS())
	s.cache.SetEpoch(n.ReadThrough().Epoch())
	return s, nil
}

// Coord returns the session's coordinator node.
func (s *Session) Coord() *node.Node { return s.coord }

// Cache exposes the private shard map cache (tests).
func (s *Session) Cache() *shard.Cache { return s.cache }

// refreshCache re-reads every shard map row at the given snapshot.
func (s *Session) refreshCache(snap base.Timestamp) {
	for _, t := range s.c.Tables() {
		for i := 0; i < t.NumShards; i++ {
			id := t.FirstShard + base.ShardID(i)
			if d, ver, err := s.coord.ReadMapRow(snap, id); err == nil {
				s.cache.Update(d, ver)
			}
		}
	}
}

// Begin starts a transaction coordinated by the session's node. If the
// node's read-through epoch advanced (a migration's T_m committed and the
// read-through window closed), the cache is refreshed first — "the process
// will refresh its cache entries to the new version from the shard map table
// after completing the current transaction" (§3.5.1).
func (s *Session) Begin() (*Txn, error) {
	if err := s.checkUp(); err != nil {
		return nil, err
	}
	t := &Txn{
		s:     s,
		id:    s.coord.Manager().NewGlobalID(),
		parts: make(map[base.NodeID]*txn.Txn),
	}
	// Register the coordinator participant eagerly, letting the manager
	// acquire the snapshot inside its registration critical section: the
	// timestamp is visible to horizon scans from the instant it exists, so
	// a migration drain can never slip past a just-begun transaction.
	p := s.coord.Manager().Begin(t.id, base.TsZero)
	t.parts[s.coord.ID()] = p
	t.startTS = p.StartTS
	if epoch := s.coord.ReadThrough().Epoch(); epoch != s.cache.Epoch() {
		s.refreshCache(t.startTS)
		s.cache.SetEpoch(epoch)
	}
	return t, nil
}

func (s *Session) checkUp() error {
	if s.coord.Crashed() {
		return fmt.Errorf("coordinator %v: %w", s.coord.ID(), base.ErrNodeDown)
	}
	return nil
}

// routeShard resolves the placement of a shard for a transaction, honouring
// the cache-read-through protocol of ordered diversion (§3.5.1).
func (s *Session) routeShard(t *Txn, tbl *shard.Table, shardID base.ShardID) (shard.Desc, error) {
	if s.coord.ReadThrough().Active(shardID) {
		d, ver, err := s.coord.ReadMapRow(t.startTS, shardID)
		if err != nil {
			return shard.Desc{}, fmt.Errorf("read-through of %v: %w", shardID, err)
		}
		s.cache.Update(d, ver)
		return d, nil
	}
	if e, ok := s.cache.Lookup(shardID); ok {
		return e.Desc, nil
	}
	d, ver, err := s.coord.ReadMapRow(t.startTS, shardID)
	if err != nil {
		return shard.Desc{}, err
	}
	s.cache.Update(d, ver)
	return d, nil
}

// reroute refreshes one shard's placement after ErrShardMoved: first at the
// transaction's snapshot, then — if even that owner rejects — at the latest
// committed placement. The fallback serves transactions whose snapshot-time
// owner retired the shard after a full ownership transfer (lock-and-abort
// and wait-and-remaster drop the source once the destination has a complete,
// caught-up copy, so reading there with the old snapshot stays consistent).
func (s *Session) reroute(t *Txn, shardID base.ShardID, latest bool) (shard.Desc, error) {
	snap := t.startTS
	if latest {
		snap = base.TsMax
	}
	d, ver, err := s.coord.ReadMapRow(snap, shardID)
	if err != nil {
		return shard.Desc{}, err
	}
	s.cache.Update(d, ver)
	return d, nil
}

// ---------------------------------------------------------------------------
// Distributed transaction.

// Txn is a client transaction: a snapshot, a global id and one participant
// per node it touches. Not safe for concurrent use (one statement at a time,
// like a SQL session).
type Txn struct {
	s       *Session
	id      base.TxnID
	startTS base.Timestamp
	parts   map[base.NodeID]*txn.Txn
	done    bool
}

// StartTS returns the transaction's snapshot timestamp.
func (t *Txn) StartTS() base.Timestamp { return t.startTS }

// ID returns the global transaction id.
func (t *Txn) ID() base.TxnID { return t.id }

// Participants reports how many nodes the transaction touched.
func (t *Txn) Participants() int { return len(t.parts) }

// part returns (creating if needed) the participant on node n.
func (t *Txn) part(n *node.Node) *txn.Txn {
	if p, ok := t.parts[n.ID()]; ok {
		return p
	}
	p := n.Manager().Begin(t.id, t.startTS)
	t.parts[n.ID()] = p
	return p
}

// charge accounts a network round trip when the participant is remote. With
// a fault plane installed the trip can fail (drop budget exhausted, directed
// partition): the statement then never reaches the participant.
func (t *Txn) charge(n *node.Node, payload int) error {
	if n.ID() != t.s.coord.ID() {
		return t.s.c.net.RoundTripBetween(t.s.coord.ID(), n.ID(), payload)
	}
	return nil
}

const routeRetries = 3

// exec routes one statement to the shard's owner and runs fn there,
// re-routing when the shard has moved.
func (t *Txn) exec(tbl *shard.Table, shardID base.ShardID, payload int, fn func(n *node.Node, p *txn.Txn) error) error {
	if t.done {
		return base.ErrTxnFinished
	}
	d, err := t.s.routeShard(t, tbl, shardID)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		n := t.s.c.Node(d.Node)
		if n == nil {
			return fmt.Errorf("route to unknown %v: %w", d.Node, base.ErrShardMoved)
		}
		p := t.part(n)
		if err := t.charge(n, payload); err != nil {
			return fmt.Errorf("statement to %v: %w", n.ID(), err)
		}
		err := fn(n, p)
		if !errors.Is(err, base.ErrShardMoved) || attempt >= routeRetries {
			return err
		}
		// First retry re-reads the placement at the transaction's snapshot;
		// later retries fall back to the latest committed placement.
		if d, err = t.s.reroute(t, shardID, attempt >= 1); err != nil {
			return err
		}
	}
}

// Get reads one tuple.
func (t *Txn) Get(tbl *shard.Table, key base.Key) (base.Value, error) {
	var out base.Value
	err := t.exec(tbl, tbl.ShardOf(key), len(key)+64, func(n *node.Node, p *txn.Txn) error {
		v, err := n.Get(p, tbl.ShardOf(key), key)
		out = v
		return err
	})
	return out, err
}

// Insert creates a tuple.
func (t *Txn) Insert(tbl *shard.Table, key base.Key, value base.Value) error {
	return t.write(tbl, mvcc.WriteInsert, key, value)
}

// Update overwrites a tuple.
func (t *Txn) Update(tbl *shard.Table, key base.Key, value base.Value) error {
	return t.write(tbl, mvcc.WriteUpdate, key, value)
}

// Delete tombstones a tuple.
func (t *Txn) Delete(tbl *shard.Table, key base.Key) error {
	return t.write(tbl, mvcc.WriteDelete, key, nil)
}

// LockRow takes the row lock without changing the tuple (FOR UPDATE).
func (t *Txn) LockRow(tbl *shard.Table, key base.Key) error {
	return t.write(tbl, mvcc.WriteLock, key, nil)
}

func (t *Txn) write(tbl *shard.Table, kind mvcc.WriteKind, key base.Key, value base.Value) error {
	return t.exec(tbl, tbl.ShardOf(key), len(key)+len(value)+64, func(n *node.Node, p *txn.Txn) error {
		return n.Write(p, tbl.ShardOf(key), kind, key, value)
	})
}

// KV is one row of a batch insert.
type KV struct {
	Key   base.Key
	Value base.Value
}

// BatchInsert routes rows to their shards and inserts them, charging one
// round trip per (node, batch) like the COPY ingestion path of §4.3. It
// stops at the first error.
func (t *Txn) BatchInsert(tbl *shard.Table, rows []KV) error {
	if t.done {
		return base.ErrTxnFinished
	}
	byShard := make(map[base.ShardID][]KV)
	for _, kv := range rows {
		id := tbl.ShardOf(kv.Key)
		byShard[id] = append(byShard[id], kv)
	}
	// Deterministic shard order keeps lock acquisition order stable.
	ids := make([]base.ShardID, 0, len(byShard))
	for id := range byShard {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	for _, id := range ids {
		batch := byShard[id]
		payload := 0
		for _, kv := range batch {
			payload += len(kv.Key) + len(kv.Value)
		}
		err := t.exec(tbl, id, payload, func(n *node.Node, p *txn.Txn) error {
			for _, kv := range batch {
				if err := n.Write(p, id, mvcc.WriteInsert, kv.Key, kv.Value); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// ScanShard streams the visible tuples of one shard.
func (t *Txn) ScanShard(tbl *shard.Table, shardID base.ShardID, fn func(base.Key, base.Value) bool) error {
	return t.exec(tbl, shardID, 128, func(n *node.Node, p *txn.Txn) error {
		return n.Scan(p, shardID, "", "", fn)
	})
}

// ScanRange streams visible tuples with keys in [lo, hi). The range must lie
// within one shard — true for prefix scans whose prefix covers the table's
// distribution key (e.g. TPC-C (w_id, d_id, ...) scans with PrefixLen 8).
func (t *Txn) ScanRange(tbl *shard.Table, lo, hi base.Key, fn func(base.Key, base.Value) bool) error {
	shardID := tbl.ShardOf(lo)
	return t.exec(tbl, shardID, 128, func(n *node.Node, p *txn.Txn) error {
		return n.Scan(p, shardID, lo, hi, fn)
	})
}

// ScanTable streams every visible tuple of the table, shard by shard (the
// analytical query shape of hybrid workload B).
func (t *Txn) ScanTable(tbl *shard.Table, fn func(base.Key, base.Value) bool) error {
	for i := 0; i < tbl.NumShards; i++ {
		stop := false
		err := t.ScanShard(tbl, tbl.FirstShard+base.ShardID(i), func(k base.Key, v base.Value) bool {
			if !fn(k, v) {
				stop = true
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
		if stop {
			return nil
		}
	}
	return nil
}

// Commit finishes the transaction: single-participant fast path, or 2PC
// with the commit timestamp folded from the prepare timestamps of the
// participants that wrote (§2.2).
func (t *Txn) Commit() (base.Timestamp, error) {
	if t.done {
		return 0, base.ErrTxnFinished
	}
	t.done = true
	// Every write, row lock included, logs a change record, so a participant
	// that logged nothing wrote nothing, and its outcome changes nothing: it
	// commits at the snapshot in the first round — no record, no sync, no
	// timestamp — and sits out the second. Nothing it could make visible
	// needs to be durable, because it made nothing. A transaction no
	// participant logged for is done after that round, at its snapshot.
	switch len(t.parts) {
	case 0:
		return t.startTS, nil
	case 1:
		for id, p := range t.parts {
			if err := t.charge(t.s.c.Node(id), 64); err != nil {
				_ = p.Abort()
				return 0, fmt.Errorf("commit to %v: %w", id, err)
			}
			if p.FirstLSN() == 0 {
				if err := p.CommitReadOnly(t.startTS); err != nil {
					return 0, err
				}
				return t.startTS, nil
			}
			cts, err := p.Commit()
			if err != nil {
				return 0, err
			}
			t.s.coord.Oracle().Observe(cts)
			return cts, nil
		}
	}
	writers := make(map[base.NodeID]*txn.Txn, len(t.parts))
	for id, p := range t.parts {
		if p.FirstLSN() != 0 {
			writers[id] = p
		}
	}
	var mu sync.Mutex
	var maxPrep base.Timestamp
	err := t.round(t.parts, func(id base.NodeID, p *txn.Txn, trip error) error {
		// A lost prepare message is a prepare failure: the participant
		// never voted, so the transaction aborts.
		if trip != nil {
			return fmt.Errorf("prepare to %v: %w", id, trip)
		}
		if writers[id] == nil {
			return p.CommitReadOnly(t.startTS)
		}
		ts, err := p.Prepare()
		mu.Lock()
		maxPrep = max(maxPrep, ts)
		mu.Unlock()
		return err
	})
	if err != nil {
		// Read-only participants that already committed refuse the abort.
		for _, p := range t.parts {
			_ = p.Abort()
		}
		return 0, err
	}
	if len(writers) == 0 {
		return t.startTS, nil
	}
	cts := t.s.coord.Oracle().CommitTS(maxPrep)
	// The decision is recorded; a lost commit message does not change it
	// (the participant resolves via 2PC recovery), so a failed trip here is
	// not an error.
	if err := t.round(writers, func(_ base.NodeID, p *txn.Txn, _ error) error { return p.CommitAt(cts) }); err != nil {
		return 0, err
	}
	return cts, nil
}

// round runs step on every participant of parts in parallel, each after the
// coordinator's round trip to its node (trip is that trip's error), and
// returns the first error a step reports.
func (t *Txn) round(parts map[base.NodeID]*txn.Txn, step func(id base.NodeID, p *txn.Txn, trip error) error) error {
	errs := make(chan error, len(parts))
	for id, p := range parts {
		go func() { errs <- step(id, p, t.charge(t.s.c.Node(id), 64)) }()
	}
	var first error
	for range parts {
		if err := <-errs; first == nil {
			first = err
		}
	}
	return first
}

// Abort rolls the transaction back on every participant.
func (t *Txn) Abort() {
	if t.done {
		return
	}
	t.done = true
	for _, p := range t.parts {
		_ = p.Abort()
	}
}
