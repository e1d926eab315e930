package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"remus/internal/base"
	"remus/internal/btree"
	"remus/internal/clock"
	"remus/internal/clog"
	"remus/internal/mvcc"
	"remus/internal/storage"
	"remus/internal/txn"
	"remus/internal/wal"
)

// Direct timings of the layers below the cluster, each a fixed count of calls
// into the layer's public API with the workload's own keys, value size and
// row count. They run after the windows, on structures of their own, so they
// neither disturb nor depend on the cluster under test. A probe reports the
// mean over its loop: the per-call cost is far below what a clock read
// resolves.

// perCall runs fn n times and returns the mean ns per call.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := range n {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

func (b *bench) probes(m metrics, dir string) error {
	w := b.w
	rng := newRand(b.cfg.seed, 99)
	n := b.cfg.probeCalls
	anyKey := func() base.Key { return w.keys[rng.Uint64N(w.rows)] }

	m["clock.start_ts_ns"] = perCall(n/10, func(int) { b.c.Node(1).Oracle().StartTS() })

	// One node's transaction stack, loaded with the workload's rows.
	cl := clog.New()
	oracle := clock.NewHLC(clock.WallClock(), 0)
	mgr := txn.NewManager(1, cl, wal.New(), oracle, mvcc.DefaultConfig())
	store := mvcc.NewStore(cl, mvcc.DefaultConfig())
	vals := make([]base.Value, w.rows)
	for id := range w.rows {
		vals[id] = makeValue(rng, id, 0, w.valueLen)
	}
	store.InstallBootstrapBatch(w.keys, vals)

	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	m["txn.local_write_txn_ns"] = perCall(n/4, func(int) {
		id := rng.Uint64N(w.rows)
		t := mgr.Begin(0, base.TsZero)
		keep(t.Write(store, 1, 1, mvcc.WriteUpdate, w.keys[id], vals[id]))
		_, err := t.Commit()
		keep(err)
	})
	snap := oracle.StartTS()
	m["mvcc.read_ns"] = perCall(n, func(int) {
		_, err := store.Read(anyKey(), snap, base.InvalidXID)
		keep(err)
	})
	xid := base.XID(1 << 40) // clear of the manager's identifiers
	m["mvcc.write_ns"] = perCall(n/4, func(int) {
		id := rng.Uint64N(w.rows)
		xid++
		ref := cl.Begin(xid)
		keep(store.Write(mvcc.WriteReq{Kind: mvcc.WriteUpdate, Key: w.keys[id], Value: vals[id], XID: xid, StartTS: oracle.StartTS(), Ref: ref}))
		keep(cl.SetCommitted(xid, oracle.CommitTS(0)))
		store.ReleaseLocks(xid)
	})
	const scanRows = 64
	snap = oracle.StartTS()
	rows := 0
	scanNS := perCall(n/100, func(int) {
		lo := rng.Uint64N(w.rows-scanRows) / scanRows * scanRows
		keep(store.ScanRange(w.keys[lo], w.keys[lo+scanRows], snap, base.InvalidXID, func(base.Key, base.Value) bool {
			rows++
			return true
		}))
	})
	m["mvcc.scan_ns_per_row"] = scanNS * float64(n/100) / float64(max(rows, 1))

	m["clog.lookup_ns"] = perCall(n, func(int) { cl.Lookup(base.XID(1<<40) + base.XID(rng.Uint64N(uint64(n/4))) + 1) })

	tree := btree.New()
	m["btree.set_ns"] = perCall(int(w.rows), func(i int) { tree.Set(w.keys[i], i) })
	m["btree.get_ns"] = perCall(n, func(int) { tree.Get(anyKey()) })

	log := wal.New()
	m["wal.append_ns"] = perCall(n/4, func(i int) {
		id := uint64(i) % w.rows
		log.Append(wal.Record{Type: wal.RecUpdate, XID: base.XID(i), Table: 1, Shard: 1, Key: w.keys[id], Value: vals[id]})
	})

	if w.durable {
		seg, err := storage.OpenSegmentWAL(filepath.Join(dir, "probe-wal"), 0)
		if err != nil {
			return err
		}
		defer seg.Close()
		us := make([]float64, 0, 300)
		for i := range cap(us) {
			id := uint64(i) % w.rows
			start := time.Now()
			keep(seg.Append(wal.Record{LSN: wal.LSN(i + 1), Type: wal.RecUpdate, XID: base.XID(i), Table: 1, Shard: 1, Key: w.keys[id], Value: vals[id]}))
			keep(seg.Sync())
			us = append(us, float64(time.Since(start))/1e3)
		}
		slices.Sort(us)
		m["storage.fsync_us_p50"] = us[len(us)/2]
	}
	if firstErr != nil {
		return fmt.Errorf("layer probe: %w", firstErr)
	}
	return nil
}
