package clog

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"remus/internal/base"
)

// refCLOG is the pre-striping reference implementation: one map, one mutex,
// the exact transition rules the striped CLOG must preserve. The equivalence
// test drives both through the same per-xid lifecycles — the striped one
// concurrently, the reference sequentially — and compares every final entry.
type refCLOG struct {
	mu   sync.Mutex
	recs map[base.XID]Entry
}

func newRefCLOG() *refCLOG { return &refCLOG{recs: make(map[base.XID]Entry)} }

func (c *refCLOG) begin(xid base.XID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.recs[xid] = Entry{Status: base.StatusInProgress}
}

func (c *refCLOG) setPrepared(xid base.XID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.recs[xid]
	if e.Status != base.StatusInProgress {
		return errState
	}
	c.recs[xid] = Entry{Status: base.StatusPrepared}
	return nil
}

// setDecided moves an undecided prepared record to decided: still
// prepared, now carrying its commit timestamp.
func (c *refCLOG) setDecided(xid base.XID, ts base.Timestamp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recs[xid] != (Entry{Status: base.StatusPrepared}) || ts == 0 {
		return errState
	}
	c.recs[xid] = Entry{Status: base.StatusPrepared, CommitTS: ts}
	return nil
}

func (c *refCLOG) setCommitted(xid base.XID, ts base.Timestamp) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.recs[xid]
	decided := e.Status == base.StatusPrepared && e.CommitTS != 0
	switch {
	case e.Status == base.StatusCommitted, decided:
		if e.CommitTS != ts {
			return errState
		}
		if !decided {
			return nil
		}
	case e.Status == base.StatusAborted:
		return errState
	}
	c.recs[xid] = Entry{Status: base.StatusCommitted, CommitTS: ts}
	return nil
}

func (c *refCLOG) setAborted(xid base.XID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.recs[xid]
	switch {
	case e.Status == base.StatusAborted:
		return nil
	case e.Status == base.StatusCommitted, e.Status == base.StatusPrepared && e.CommitTS != 0:
		return errState
	}
	c.recs[xid] = Entry{Status: base.StatusAborted}
	return nil
}

func (c *refCLOG) lookup(xid base.XID) Entry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.recs[xid]
	if !ok {
		return Entry{Status: base.StatusAborted}
	}
	return e
}

var errState = &stateErr{}

type stateErr struct{}

func (*stateErr) Error() string { return "illegal transition" }

// lifecycle is one xid's scripted path through the CLOG.
type lifecycle struct {
	xid     base.XID
	prepare bool
	outcome base.TxnStatus // committed, aborted, or in-progress (left open)
	ts      base.Timestamp
}

func randomLifecycles(rng *rand.Rand, n int) []lifecycle {
	ls := make([]lifecycle, n)
	for i := range ls {
		l := lifecycle{xid: base.XID(i + 1), prepare: rng.Intn(2) == 0}
		switch rng.Intn(10) {
		case 0: // leave open (in-progress or prepared)
			l.outcome = base.StatusInProgress
		case 1, 2, 3:
			l.outcome = base.StatusAborted
		default:
			l.outcome = base.StatusCommitted
			l.ts = base.Timestamp(1000 + i)
		}
		ls[i] = l
	}
	return ls
}

// TestStripedMatchesReference drives the striped CLOG through randomized
// concurrent lifecycles — workers interleaved across stripes, prepare-waiters
// racing the terminal transitions — and checks every xid's final entry against
// the single-map reference fed the same script sequentially.
func TestStripedMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ls := randomLifecycles(rng, 512)

		striped := New()
		ref := newRefCLOG()
		for _, l := range ls {
			ref.begin(l.xid)
			if l.prepare {
				if err := ref.setPrepared(l.xid); err != nil {
					t.Fatal(err)
				}
			}
			switch l.outcome {
			case base.StatusCommitted:
				if err := ref.setCommitted(l.xid, l.ts); err != nil {
					t.Fatal(err)
				}
			case base.StatusAborted:
				if err := ref.setAborted(l.xid); err != nil {
					t.Fatal(err)
				}
			}
		}

		// Concurrent run: workers pick up lifecycles round-robin so each
		// stripe sees traffic from every worker; waiters prepare-wait on
		// terminal xids and must observe exactly the scripted outcome. All
		// Begins land first (waiting on a never-begun xid legitimately
		// reports aborted, which is not what this test probes).
		const workers = 8
		var wg sync.WaitGroup
		refs := make([]*Ref, len(ls))
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ls); i += workers {
					refs[i] = striped.Begin(ls[i].xid)
				}
			}(w)
		}
		wg.Wait()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ls); i += workers {
					l := ls[i]
					if l.prepare {
						if err := striped.SetPrepared(l.xid); err != nil {
							t.Error(err)
						}
					}
					switch l.outcome {
					case base.StatusCommitted:
						if err := striped.SetCommitted(l.xid, l.ts); err != nil {
							t.Error(err)
						}
					case base.StatusAborted:
						if err := striped.SetAborted(l.xid); err != nil {
							t.Error(err)
						}
					}
				}
			}(w)
		}
		for w := 0; w < workers/2; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(ls); i += workers / 2 {
					l := ls[i]
					if l.outcome == base.StatusInProgress {
						continue
					}
					e, err := striped.WaitDone(l.xid, 0)
					if err != nil {
						t.Errorf("wait for %v: %v", l.xid, err)
						continue
					}
					if e.Status != l.outcome || e.CommitTS != l.ts {
						t.Errorf("waiter saw %+v for %v, want %v@%v", e, l.xid, l.outcome, l.ts)
					}
				}
			}(w)
		}
		wg.Wait()

		for _, l := range ls {
			got, want := striped.Lookup(l.xid), ref.lookup(l.xid)
			// An open lifecycle with prepare may be observed either way only
			// if transitions raced; here each xid has a single worker, so the
			// states must match exactly.
			if got != want {
				t.Fatalf("seed %d xid %v: striped %+v, reference %+v", seed, l.xid, got, want)
			}
		}

		// Refs outlive Forget: terminal records keep answering through the
		// handle after truncation drops them from the table.
		for i, l := range ls {
			if l.outcome == base.StatusInProgress {
				continue
			}
			if err := striped.Forget(l.xid); err != nil {
				t.Fatal(err)
			}
			if striped.Handle(l.xid) != nil {
				t.Fatalf("xid %v still in table after Forget", l.xid)
			}
			if e := refs[i].Entry(); e.Status != l.outcome || e.CommitTS != l.ts {
				t.Fatalf("forgotten xid %v ref reports %+v, want %v@%v", l.xid, e, l.outcome, l.ts)
			}
		}
	}
}

// TestStripedIllegalTransitionsMatchReference checks that the CAS-loop word
// transitions reject exactly what the reference rejects.
func TestStripedIllegalTransitionsMatchReference(t *testing.T) {
	striped, ref := New(), newRefCLOG()
	striped.Begin(1)
	ref.begin(1)
	mustBoth := func(sErr, rErr error) {
		t.Helper()
		if (sErr == nil) != (rErr == nil) {
			t.Fatalf("striped err %v, reference err %v", sErr, rErr)
		}
	}
	mustBoth(striped.SetCommitted(1, 10), ref.setCommitted(1, 10))
	mustBoth(striped.SetCommitted(1, 10), ref.setCommitted(1, 10)) // idempotent re-commit
	mustBoth(striped.SetCommitted(1, 11), ref.setCommitted(1, 11)) // mismatched re-commit
	mustBoth(striped.SetAborted(1), ref.setAborted(1))             // abort after commit
	mustBoth(striped.SetPrepared(1), ref.setPrepared(1))           // prepare after commit

	striped.Begin(2)
	ref.begin(2)
	mustBoth(striped.SetAborted(2), ref.setAborted(2))
	mustBoth(striped.SetAborted(2), ref.setAborted(2))           // idempotent re-abort
	mustBoth(striped.SetCommitted(2, 5), ref.setCommitted(2, 5)) // commit after abort
}

// TestStripedDecidedMatchesReference checks the decided transition — the
// commit whose record is being synced — against the reference: a decided record refuses
// abort, a second decision and a commit at another timestamp, commits at its
// own, and stays live (prepare-wait, no Forget) until then.
func TestStripedDecidedMatchesReference(t *testing.T) {
	striped, ref := New(), newRefCLOG()
	mustBoth := func(sErr, rErr error) {
		t.Helper()
		if (sErr == nil) != (rErr == nil) {
			t.Fatalf("striped err %v, reference err %v", sErr, rErr)
		}
	}
	mustMatch := func(xid base.XID) {
		t.Helper()
		if got, want := striped.Lookup(xid), ref.lookup(xid); got != want {
			t.Fatalf("xid %v: striped %+v, reference %+v", xid, got, want)
		}
	}
	r := striped.Begin(1)
	ref.begin(1)
	mustBoth(r.SetDecided(10), ref.setDecided(1, 10)) // decide before prepare
	mustBoth(r.SetPrepared(), ref.setPrepared(1))
	mustBoth(r.SetDecided(0), ref.setDecided(1, 0)) // a decision needs a timestamp
	mustBoth(r.SetDecided(10), ref.setDecided(1, 10))
	mustMatch(1)
	mustBoth(r.SetDecided(11), ref.setDecided(1, 11))              // second decision
	mustBoth(striped.SetAborted(1), ref.setAborted(1))             // abort of decided
	mustBoth(striped.SetPrepared(1), ref.setPrepared(1))           // prepare of decided
	mustBoth(striped.SetCommitted(1, 11), ref.setCommitted(1, 11)) // commit elsewhere
	mustMatch(1)
	if err := striped.Forget(1); err == nil {
		t.Fatal("forget of a decided record must fail")
	}
	if _, err := r.WaitDone(time.Millisecond); !errors.Is(err, base.ErrTimeout) {
		t.Fatalf("prepare-wait on a decided record = %v, want a timeout", err)
	}
	waited := make(chan Entry, 1)
	go func() { e, _ := r.WaitDone(0); waited <- e }()
	mustBoth(striped.SetCommitted(1, 10), ref.setCommitted(1, 10))
	mustMatch(1)
	if e := <-waited; e != (Entry{Status: base.StatusCommitted, CommitTS: 10}) {
		t.Fatalf("waiter woke with %+v", e)
	}
}
