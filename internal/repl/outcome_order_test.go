package repl

import (
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/fault"
	"remus/internal/wal"
)

// parkedValidation starts a two-worker replayer whose first validation
// parks at fault.SiteValidateStart, submits the validation of records and
// waits until a worker holds it parked. release lets it run.
func parkedValidation(t *testing.T, p *pair, xid base.XID, records []wal.Record) (rep *Replayer, release func()) {
	t.Helper()
	reached, hold := make(chan struct{}), make(chan struct{})
	reg := fault.NewRegistry(1)
	reg.Arm(fault.SiteValidateStart, fault.Action{Once: true, Do: func() {
		close(reached)
		<-hold
	}})
	rep = NewReplayer(p.dst, 2, nil, reg, nil)
	t.Cleanup(rep.Close)
	rep.SubmitValidate(xid, 0, p.dst.Oracle().StartTS(), records)
	<-reached
	return rep, func() { close(hold) }
}

// settle gives the outcome task submitted behind a parked validation the
// time to run if nothing holds it back: with the validation parked, an
// unordered outcome is the only task able to finish, while an ordered one
// waits for the release, so this wait runs out.
func settle(rep *Replayer) {
	deadline := time.Now().Add(50 * time.Millisecond)
	for rep.Pending() > 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// TestAbortShadowWaitsForValidation: an abort submitted while its
// validation is still pending must roll back the shadow that validation
// prepares. Run first, it would find no shadow, and the validation would
// then leave an orphan prepared shadow. The change set is empty (the
// propagator validates a transaction with no change on the migrating
// shards that way), so no key orders the two tasks: only the xid does.
func TestAbortShadowWaitsForValidation(t *testing.T) {
	p := newPair(t)
	const xid base.XID = 7
	rep, release := parkedValidation(t, p, xid, nil)
	rep.SubmitAbortShadow(xid)
	settle(rep)
	release()
	rep.Barrier()
	if n := rep.PreparedShadows(); n != 0 {
		t.Fatalf("%d prepared shadows after the abort, want 0 (residual %v)", n, rep.ResidualShadows())
	}
}

// TestCommitShadowWaitsForValidation: a commit submitted while its
// validation is still pending must commit the shadow that validation
// prepares. Run first, it would fail as a commit of an unknown shadow, and
// the transaction's change would be lost on the destination.
func TestCommitShadowWaitsForValidation(t *testing.T) {
	p := newPair(t)
	const xid base.XID = 8
	insert := []wal.Record{{Type: wal.RecInsert, XID: xid, Shard: testShard, Key: base.Key("k"), Value: base.Value("v")}}
	rep, release := parkedValidation(t, p, xid, insert)
	cts := p.dst.Oracle().StartTS()
	rep.SubmitCommitShadow(xid, cts)
	settle(rep)
	release()
	rep.Barrier()
	if n := rep.PreparedShadows(); n != 0 {
		t.Fatalf("%d prepared shadows after the commit, want 0 (residual %v)", n, rep.ResidualShadows())
	}
	if v, err := p.dstRead(t, "k", cts); err != nil || v != "v" {
		t.Fatalf("committed shadow's insert reads %q, %v at its commit timestamp", v, err)
	}
}

// TestCloseRunsQueuedAbortShadow: Close must not drop a shadow's abort that
// is queued behind its validation. The validation is parked when Close
// starts and prepares its shadow once released; the abort behind it must
// still roll that shadow back, or the destination keeps a prepared
// transaction that no migration will ever resolve.
func TestCloseRunsQueuedAbortShadow(t *testing.T) {
	p := newPair(t)
	const xid base.XID = 9
	insert := []wal.Record{{Type: wal.RecInsert, XID: xid, Shard: testShard, Key: base.Key("k"), Value: base.Value("v")}}
	rep, release := parkedValidation(t, p, xid, insert)
	rep.SubmitAbortShadow(xid)
	closed := make(chan struct{})
	go func() {
		rep.Close()
		close(closed)
	}()
	<-rep.closing
	release()
	<-closed
	if n := rep.PreparedShadows(); n != 0 {
		t.Fatalf("%d prepared shadows after Close, want 0 (residual %v)", n, rep.ResidualShadows())
	}
	if n := p.dst.Manager().ActiveCount(); n != 0 {
		t.Fatalf("destination keeps %d active transactions after Close", n)
	}
}
