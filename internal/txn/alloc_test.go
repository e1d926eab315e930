package txn

import (
	"fmt"
	"testing"

	"remus/internal/base"
	"remus/internal/mvcc"
)

// TestTxnAllocsBounded pins the foreground hot path's allocation count: a
// committed transaction of eight updates, and one of eight reads, against a
// preloaded store on one Manager. The bounds are the counts measured when
// the pin was written; a change that raises them must justify the cost. A
// thousand runs spread the amortized growth of the log and the version
// arrays thin enough that the truncated average is stable.
func TestTxnAllocsBounded(t *testing.T) {
	const (
		ops             = 8
		maxUpdateAllocs = 59
		maxReadAllocs   = 3
	)
	f := newFixture(t)
	keys := make([]base.Key, ops)
	vals := make([]base.Value, ops)
	for i := range keys {
		keys[i] = base.Key(fmt.Sprintf("k%06d", i))
		vals[i] = base.Value("v")
	}
	f.store.InstallBootstrapBatch(keys, vals)
	val := base.Value("u")

	update := testing.AllocsPerRun(1000, func() {
		tx := f.mgr.Begin(0, 0)
		for _, k := range keys {
			if err := tx.Write(f.store, 1, 1, mvcc.WriteUpdate, k, val); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	read := testing.AllocsPerRun(1000, func() {
		tx := f.mgr.Begin(0, 0)
		for _, k := range keys {
			if _, err := tx.Read(f.store, k); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("allocs/txn: update %.1f, read %.1f", update, read)
	if update > maxUpdateAllocs {
		t.Errorf("Begin + %d Updates + Commit allocated %.1f objects, want <= %d", ops, update, maxUpdateAllocs)
	}
	if read > maxReadAllocs {
		t.Errorf("Begin + %d Reads + Commit allocated %.1f objects, want <= %d", ops, read, maxReadAllocs)
	}
}
