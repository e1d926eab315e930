package cluster

import (
	"errors"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/node"
)

func TestDeleteAndReinsert(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 4)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(11)

	tx, _ := s.Begin()
	if err := tx.Insert(tbl, key, base.Value("v1")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := s.Begin()
	if err := tx2.Delete(tbl, key); err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Commit(); err != nil {
		t.Fatal(err)
	}
	tx3, _ := s.Begin()
	if _, err := tx3.Get(tbl, key); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("get after delete = %v", err)
	}
	// Reinsert over the tombstone.
	if err := tx3.Insert(tbl, key, base.Value("v2")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx3.Commit(); err != nil {
		t.Fatal(err)
	}
	tx4, _ := s.Begin()
	v, err := tx4.Get(tbl, key)
	if err != nil || string(v) != "v2" {
		t.Fatalf("get after reinsert = %q, %v", v, err)
	}
	tx4.Abort()
	// Deleting a missing key errors.
	tx5, _ := s.Begin()
	if err := tx5.Delete(tbl, base.EncodeUint64Key(999999)); !errors.Is(err, base.ErrKeyNotFound) {
		t.Fatalf("delete missing = %v", err)
	}
	tx5.Abort()
}

func TestScanRangePrefix(t *testing.T) {
	c := newCluster(t, 2, DTS)
	// PrefixLen 8: all keys sharing the first component collocate.
	tbl, err := c.CreateTable("orders", 4, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := mustSession(t, c, 1)
	tx, _ := s.Begin()
	for group := uint64(0); group < 3; group++ {
		for i := uint64(0); i < 10; i++ {
			key := base.NewKeyEncoder().Uint64(group).Uint64(i).Key()
			if err := tx.Insert(tbl, key, base.Value{byte(group), byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	tx2, _ := s.Begin()
	lo := base.NewKeyEncoder().Uint64(1).Key()
	hi := base.NewKeyEncoder().Uint64(2).Key()
	count := 0
	if err := tx2.ScanRange(tbl, lo, hi, func(k base.Key, v base.Value) bool {
		if v[0] != 1 {
			t.Errorf("range scan leaked group %d", v[0])
		}
		count++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("scanned %d, want 10", count)
	}
	// Early stop.
	n := 0
	if err := tx2.ScanRange(tbl, lo, hi, func(base.Key, base.Value) bool {
		n++
		return false
	}); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
	tx2.Abort()
}

func TestMoveShardMapDirect(t *testing.T) {
	c := newCluster(t, 3, DTS)
	tbl := mustTable(t, c, "kv", 3)
	id := tbl.FirstShard
	origin, err := c.OwnerOf(id)
	if err != nil {
		t.Fatal(err)
	}
	var target base.NodeID = 1
	if origin == 1 {
		target = 2
	}
	// Give the target a live copy first so routing stays sane.
	src := c.Node(origin)
	dst := c.Node(target)
	srcStore, _ := src.Store(id)
	dstStore := dst.AddShard(id, tbl.ID, node.PhaseDestActive)
	_ = srcStore
	_ = dstStore

	cts, err := c.MoveShardMap(c.Nodes()[0], []base.ShardID{id}, target)
	if err != nil {
		t.Fatal(err)
	}
	if cts == 0 {
		t.Fatal("zero commit timestamp")
	}
	// Every node's map row reflects the move at cts.
	for _, n := range c.Nodes() {
		d, ver, err := n.ReadMapRow(cts, id)
		if err != nil {
			t.Fatalf("%v: %v", n.ID(), err)
		}
		if d.Node != target || ver != cts {
			t.Fatalf("%v row = %+v @%v", n.ID(), d, ver)
		}
		// Old snapshots still see the origin.
		d, _, err = n.ReadMapRow(cts-1, id)
		if err != nil || d.Node != origin {
			t.Fatalf("%v old row = %+v, %v", n.ID(), d, err)
		}
	}
	// Unknown shard errors.
	if _, err := c.MoveShardMap(c.Nodes()[0], []base.ShardID{9999}, target); err == nil {
		t.Fatal("move of unknown shard succeeded")
	}
}

func TestClusterVacuumAndHorizon(t *testing.T) {
	c := newCluster(t, 2, DTS)
	tbl := mustTable(t, c, "kv", 2)
	s := mustSession(t, c, 1)
	key := base.EncodeUint64Key(5)
	tx, _ := s.Begin()
	if err := tx.Insert(tbl, key, base.Value("v0")); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		tx, _ := s.Begin()
		if err := tx.Update(tbl, key, base.Value("vN")); err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	// An open transaction pins the horizon.
	open, _ := s.Begin()
	if got := c.OldestActiveTS(); got != open.StartTS() {
		t.Fatalf("horizon = %v, want %v", got, open.StartTS())
	}
	// The newest version is visible at the horizon, so exactly the five it
	// shadows go.
	if reclaimed := c.Vacuum(0); reclaimed != 5 {
		t.Fatalf("reclaimed %d versions, want the 5 dead ones", reclaimed)
	}
	v, err := open.Get(tbl, key)
	if err != nil || string(v) != "vN" {
		t.Fatalf("read after vacuum = %q, %v", v, err)
	}
	open.Abort()
	// Idle cluster: horizon is TsMax, vacuum still safe.
	if c.OldestActiveTS() != base.TsMax {
		t.Fatal("idle horizon != TsMax")
	}
	c.Vacuum(10 * time.Millisecond)
}
