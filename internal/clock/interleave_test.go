package clock

import (
	"math/rand"
	"slices"
	"testing"

	"remus/internal/base"
)

// blockAudit wraps one slot's Leaser and records every grant it returns in a
// ledger shared by all slots, failing on a (block, slot) pair granted twice:
// a re-created client must never be handed a row it, or anyone, drew from.
type blockAudit struct {
	Leaser
	t       testing.TB
	slot    uint64
	granted map[[2]uint64]bool
}

func (a *blockAudit) GrantLease(epoch, n uint64) (LeaseGrant, error) {
	g, err := a.Leaser.GrantLease(epoch, n)
	if err != nil {
		return g, err
	}
	start, class := uint64(g.Start), a.slot%g.Stride
	if start%g.Stride != class {
		a.t.Errorf("slot %d granted row starting at %d, outside its class mod %d", a.slot, start, g.Stride)
	}
	key := [2]uint64{start - class, class}
	if a.granted[key] {
		a.t.Errorf("row %d of block at %d granted twice", class, key[0])
	}
	a.granted[key] = true
	return g, nil
}

// interleaveRun drives three leased oracles through draws of n timestamps
// with random cross-node Observe and CommitTS(maxPrepare), from one
// goroutine with a seeded rng, and checks the lease invariants:
//   - no timestamp is issued twice;
//   - each oracle's timestamps strictly increase;
//   - a timestamp drawn after Observe(ts) is > ts;
//   - CommitTS(maxPrepare) > maxPrepare;
//   - no block row is granted twice (blockAudit), also to an oracle
//     re-created on the same slot.
//
// slot returns slot i's Leaser; midway, atHalf runs once (a primary kill).
func interleaveRun(t *testing.T, n int, slot func(i int) Leaser, atHalf func()) {
	const nodes, lease, recreateEvery = 3, 32, 50_000
	granted := make(map[[2]uint64]bool)
	var oracles [nodes]*LeasedOracle
	var last, floor [nodes]base.Timestamp
	recreate := func(i int) {
		oracles[i] = NewLeasedOracleFrom(&blockAudit{Leaser: slot(i), t: t, slot: uint64(i), granted: granted}, nil, lease, nil)
		last[i], floor[i] = 0, 0
	}
	for i := range oracles {
		recreate(i)
	}
	issued := make([]base.Timestamp, 0, n)
	draw := func(i int, ts base.Timestamp) {
		if ts <= last[i] {
			t.Fatalf("node %d: timestamp %d after %d", i, ts, last[i])
		}
		if ts <= floor[i] {
			t.Fatalf("node %d: timestamp %d not above observed %d", i, ts, floor[i])
		}
		last[i] = ts
		issued = append(issued, ts)
	}

	rng := rand.New(rand.NewSource(1))
	for step := 0; len(issued) < n; step++ {
		if step == n/2 && atHalf != nil {
			atHalf()
		}
		if step > 0 && step%recreateEvery == 0 {
			recreate(rng.Intn(nodes))
		}
		a, b := rng.Intn(nodes), rng.Intn(nodes)
		switch r := rng.Intn(10); {
		case r < 4:
			draw(a, oracles[a].StartTS())
		case r < 7:
			if ts := last[b]; ts > 0 {
				oracles[a].Observe(ts)
				floor[a] = max(floor[a], ts)
			}
		default:
			pa := oracles[a].PrepareTS()
			draw(a, pa)
			pb := oracles[b].PrepareTS()
			draw(b, pb)
			maxPrepare := max(pa, pb)
			ct := oracles[a].CommitTS(maxPrepare)
			if ct <= maxPrepare {
				t.Fatalf("node %d: CommitTS %d not above maxPrepare %d", a, ct, maxPrepare)
			}
			draw(a, ct)
		}
	}
	slices.Sort(issued)
	for i := 1; i < len(issued); i++ {
		if issued[i] == issued[i-1] {
			t.Fatalf("timestamp %d issued twice", issued[i])
		}
	}
	var refreshes uint64
	for _, o := range oracles {
		refreshes += o.Refreshes()
	}
	t.Logf("%d timestamps, %d refreshes by the last oracle of each slot", len(issued), refreshes)
}

func interleaveDraws() int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

// TestLeaseInterleavedUniqueGTS runs the invariants over a shared in-process
// sequencer of stride 8.
func TestLeaseInterleavedUniqueGTS(t *testing.T) {
	g := NewStridedGTS(8)
	interleaveRun(t, interleaveDraws(), g.Slot, nil)
}

// TestLeaseInterleavedUniqueReplicated runs them over a replicated oracle,
// whose leases are contiguous (stride 1), with its primary killed midway: the
// takeover grants above the durable mark, so leases stay unique across the
// failover while peers' timestamps are observed from every node.
func TestLeaseInterleavedUniqueReplicated(t *testing.T) {
	g, err := OpenReplicated(fastHA())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(g.Close)
	slot := func(i int) Leaser { return NewOracleClient(g, base.NodeID(i+1)) }
	interleaveRun(t, interleaveDraws(), slot, func() { g.Primary().Crash() })
	if g.Failovers() == 0 {
		t.Fatal("primary kill caused no failover")
	}
}

// TestLeaseSharedBlockKeepsCursor: a refresh that is handed the newest
// block, shared with a peer whose timestamp the node observed, must start
// above that timestamp — inside the block when its row reaches past it, and
// in a fresh block when the row lies wholly below it.
func TestLeaseSharedBlockKeepsCursor(t *testing.T) {
	g := NewStridedGTS(4)
	slot := func(i int) *LeasedOracle { return NewLeasedOracleFrom(g.Slot(i), nil, 2, nil) }
	a, b := slot(0), slot(3)
	a.StartTS() // opens block 1; b shares it
	low := b.StartTS()
	high := b.StartTS() // the top of block 1

	c := slot(2)
	c.Observe(low)
	if ts := c.StartTS(); ts <= low || ts > high {
		t.Fatalf("timestamp %d after observing %d, want it inside block 1 (below %d)", ts, low, high)
	}
	d := slot(1)
	d.Observe(high)
	if ts := d.StartTS(); ts <= high {
		t.Fatalf("timestamp %d after observing %d", ts, high)
	}
	if d.Refreshes() != 2 {
		t.Fatalf("%d refreshes, want 2: the shared row below the cursor, then a fresh block", d.Refreshes())
	}
}

// BenchmarkLeaseInterleaved3Nodes drives three leased oracles on one
// sequencer through 2PC-shaped timestamp traffic: the coordinator's start
// timestamp is observed by a participant, both prepare, the coordinator
// commits above both and the participant observes the commit. refreshes/op
// is what the cluster pays in sequencer round trips per transaction.
func BenchmarkLeaseInterleaved3Nodes(b *testing.B) {
	g := NewStridedGTS(8)
	var o [3]*LeasedOracle
	for i := range o {
		o[i] = NewLeasedOracleFrom(g.Slot(i), nil, 32, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, p := o[i%3], o[(i+1)%3]
		p.Observe(c.StartTS())
		ct := c.CommitTS(max(c.PrepareTS(), p.PrepareTS()))
		p.Observe(ct)
	}
	var refreshes uint64
	for _, x := range o {
		refreshes += x.Refreshes()
	}
	b.ReportMetric(float64(refreshes)/float64(b.N), "refreshes/op")
}
