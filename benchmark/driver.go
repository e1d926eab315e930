package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/core"
	"remus/internal/obs"
	"remus/internal/storage"
)

// epoch is the origin of every timestamp the benchmark records.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// signals is what the controller tells the clients about the migration it is
// running, so that the gated workloads stay clear of two hazards of the seed
// code that a migration times (README.md, known hazards). Clients read it
// between transactions, never on the timed path.
type signals struct {
	// hold asks the clients to keep their writes off the migrating group. It
	// is set, and acknowledged by every client, before a migration starts,
	// and cleared as soon as the migration has fixed where its update stream
	// begins: a write whose first log record races that computation is lost.
	hold atomic.Bool
	// gen counts migration starts and ends: odd while one is in flight.
	gen atomic.Uint32
}

// client is one closed-loop session: it waits for each reply before sending
// the next request, as a pooled application connection does. Everything it
// records goes to its own buffers.
type client struct {
	id     int
	w      *workload
	sess   *cluster.Session
	rng    *rand.Rand
	ledger *ledger
	op     op
	got    []readResult // values read by the current transaction, checked after the clock stops

	samples    []sample
	attempted  uint64
	failures   map[string]uint64 // by obs.ClassifyAbort cause
	firstErr   error             // first failed statement or check, for the report
	badReads   uint64            // reads that returned a malformed value
	staleReads uint64            // reads of an owned row that missed its last acknowledged write

	sig     *signals
	holding bool        // sig.hold as last read
	sawHold atomic.Bool // holding, for the controller to wait on
	gen     uint32      // sig.gen as read before planning

	traceFrom    atomic.Int64 // spans are recorded for transactions starting at or after this time
	tracing      bool
	spans        []spanRec
	participants uint64 // Σ Txn.Participants() over traced transactions
	tracedTxns   uint64
}

type readResult struct {
	id uint64
	v  base.Value
}

func newClient(id int, w *workload, c *cluster.Cluster, sig *signals, seed uint64, sampleCap int) (*client, error) {
	sess, err := c.Connect(base.NodeID(id%w.nodes + 1))
	if err != nil {
		return nil, err
	}
	cl := &client{
		id: id, w: w, sess: sess, sig: sig,
		rng:      newRand(seed, uint64(id)+1),
		ledger:   newLedger(w.rows, w.units()),
		samples:  make([]sample, 0, sampleCap),
		failures: map[string]uint64{},
	}
	cl.traceFrom.Store(math.MaxInt64)
	return cl, nil
}

// wroteInFlight reports whether the client wrote unit u of the migrating
// group during the migration that is still in flight. It touches such a unit
// again only when the migration is over: the seed code can deliver that write
// to the destination late, after the diversion, where a read would miss it
// and a second write would make the late one fail, silently and whole
// (README.md, known hazards).
func (cl *client) wroteInFlight(u uint64) bool {
	return cl.gen%2 == 1 && cl.ledger.wroteIn[u] == cl.gen && cl.w.owner(u) == cl.id
}

// one plans, runs, times and checks a single transaction.
func (cl *client) one() {
	if h := cl.sig.hold.Load(); h != cl.holding {
		cl.holding = h
		cl.sawHold.Store(h)
	}
	cl.gen = cl.sig.gen.Load()
	cl.op.reset()
	cl.got = cl.got[:0]
	cl.w.plan(cl.w, cl)

	traceFrom := cl.traceFrom.Load() // the controller's switch, read before the clock starts
	start := now()
	cl.tracing = start >= traceFrom
	root := cl.openRoot(start)
	err := cl.exec()
	end := now()
	cl.closeRoot(root, end)

	cl.attempted++
	if err != nil {
		cl.failures[obs.ClassifyAbort(err)]++
		if cl.firstErr == nil {
			cl.firstErr = err
		}
		// A failed Commit leaves the outcome unknown to the client.
		for _, id := range cl.op.writes {
			cl.ledger.unsure[id] = true
		}
		return
	}
	cl.samples = append(cl.samples, sample{end: end, lat: uint32(min(end-start, math.MaxUint32)), write: len(cl.op.writes) > 0})
	// Reads first: they ran before the transaction's own writes. Either kind
	// of wrong read fails the run.
	for _, r := range cl.got {
		seq, err := parseValue(r.v, r.id)
		if err != nil {
			cl.badReads++
		} else if cl.w.owner(cl.w.unit(r.id)) == cl.id {
			if err = cl.ledger.check(r.id, seq); err != nil {
				cl.staleReads++
			}
		}
		if err != nil && cl.firstErr == nil {
			cl.firstErr = fmt.Errorf("at %.3f s: %w", float64(end)/1e9, err)
		}
	}
	gen := cl.sig.gen.Load() // after the acknowledgement: odd if it came during a migration
	for _, id := range cl.op.writes {
		cl.ledger.acked[id]++
		delete(cl.ledger.unsure, id)
		if u := cl.w.unit(id); cl.w.moving[u] {
			cl.ledger.wroteIn[u] = gen
		}
	}
}

// exec runs the planned operation as one transaction: reads, scan, writes,
// commit. In a traced run every call into the cluster is wrapped in a span.
func (cl *client) exec() error {
	w := cl.w
	t := cl.clock()
	tx, err := cl.sess.Begin()
	if err != nil {
		return err
	}
	cl.span(spBegin, t, uint64(tx.ID()))
	for _, id := range cl.op.reads {
		t = cl.clock()
		v, err := tx.Get(w.tbl, w.keys[id])
		cl.span(spRead, t, uint64(tx.ID()))
		if err != nil {
			tx.Abort()
			return err
		}
		cl.got = append(cl.got, readResult{id, v})
	}
	if g := cl.op.scan; g >= 0 {
		id := uint64(g) * w.perGroup
		t = cl.clock()
		err := tx.ScanRange(w.tbl, w.groupLo[g], w.groupLo[g+1], func(_ base.Key, v base.Value) bool {
			cl.got = append(cl.got, readResult{id, v})
			id++
			return true
		})
		cl.span(spScan, t, uint64(tx.ID()))
		if err == nil && id != uint64(g+1)*w.perGroup {
			err = fmt.Errorf("scan of group %d returned %d rows, want %d", g, id-uint64(g)*w.perGroup, w.perGroup)
		}
		if err != nil {
			tx.Abort()
			return err
		}
	}
	for i, id := range cl.op.writes {
		t = cl.clock()
		err := tx.Update(w.tbl, w.keys[id], cl.op.vals[i])
		cl.span(spWrite, t, uint64(tx.ID()))
		if err != nil {
			tx.Abort()
			return err
		}
	}
	if cl.tracing {
		cl.participants += uint64(tx.Participants())
		cl.tracedTxns++
	}
	t = cl.clock()
	_, err = tx.Commit()
	cl.span(spCommit, t, uint64(tx.ID()))
	return err
}

// runUntil issues transactions until stop is set. The flag is read between
// transactions, never on the timed path.
func (cl *client) runUntil(stop *atomic.Bool) {
	for !stop.Load() {
		cl.one()
	}
}

func (cl *client) failed() uint64 {
	var n uint64
	for _, c := range cl.failures {
		n += c
	}
	return n
}

// bench is one cluster under test with its clients and controller state.
type bench struct {
	cfg  runConfig
	w    *workload
	c    *cluster.Cluster
	ctrl *core.Controller
	tr   *obs.Trace // traced runs only
	cls  []*client
	sig  signals

	owner base.NodeID // current owner of the migrating group

	migrations []migration
	ctlSpans   []ctlSpan
	ckpts      []storage.Checkpoint
	vacuumed   []int // versions reclaimed per vacuum pass
}

// migration is one completed move of the shard group.
type migration struct {
	end int64 // when it completed, on the run clock
	rep core.Report
}

// setup builds a cluster, loads the table and runs the warm-up: everything a
// user waits for before the system serves at its steady rate. The warm-up is a
// fixed count of transactions, so a faster system sets up sooner.
func setup(cfg runConfig, dir string) (*bench, error) {
	c := cluster.New(cfg.spec.config(dir))
	tbl, err := c.CreateTable("bench", cfg.spec.shards, cfg.spec.prefixLen, cfg.spec.placement)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, w: newWorkload(cfg.spec, tbl), c: c, owner: cfg.spec.home}
	if err := b.load(); err != nil {
		return nil, err
	}
	// Room for every sample of the run, so the timed path never grows a slice.
	for i := range numClients {
		cl, err := newClient(i, b.w, c, &b.sig, cfg.seed, cfg.sampleCap)
		if err != nil {
			return nil, err
		}
		b.cls = append(b.cls, cl)
	}
	var wg sync.WaitGroup
	for _, cl := range b.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range b.w.warmup {
				cl.one()
			}
		}()
	}
	wg.Wait()
	for _, cl := range b.cls {
		if cl.failed()+cl.badReads+cl.staleReads > 0 {
			return nil, fmt.Errorf("warm-up: %w", cl.firstErr)
		}
		cl.samples, cl.attempted = cl.samples[:0], 0
	}
	b.ctrl = core.NewController(c, core.DefaultOptions())
	return b, nil
}

// load inserts every row at sequence 0 through an ordinary session.
func (b *bench) load() error {
	sess, err := b.c.Connect(1)
	if err != nil {
		return err
	}
	rng := newRand(b.cfg.seed, 0)
	const chunk = 2000
	rows := make([]cluster.KV, 0, chunk)
	for lo := uint64(0); lo < b.w.rows; lo += chunk {
		rows = rows[:0]
		for id := lo; id < min(lo+chunk, b.w.rows); id++ {
			rows = append(rows, cluster.KV{Key: b.w.keys[id], Value: makeValue(rng, id, 0, b.w.valueLen)})
		}
		tx, err := sess.Begin()
		if err != nil {
			return err
		}
		if err := tx.BatchInsert(b.w.tbl, rows); err != nil {
			tx.Abort()
			return fmt.Errorf("load rows %d..: %w", lo, err)
		}
		if _, err := tx.Commit(); err != nil {
			return fmt.Errorf("load rows %d..: %w", lo, err)
		}
	}
	return nil
}

// sleepUntil blocks the controller until the run clock reads t.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// ctl times one controller action and keeps it as a span.
func (b *bench) ctl(name string, fn func() error) error {
	start := now()
	err := fn()
	b.ctlSpans = append(b.ctlSpans, ctlSpan{name: name, start: start, end: now()})
	return err
}

// maintain is the periodic housekeeping an operator runs: one vacuum pass over
// every store, then a WAL checkpoint on every node, which truncates the
// in-memory log below what transactions and migrations still need. Without it
// the log alone grows by a gigabyte in a 20 s run and the collector's cycles
// show up as every other slice running a third slower.
func (b *bench) maintain() {
	_ = b.ctl("vacuum", func() error {
		b.vacuumed = append(b.vacuumed, b.c.Vacuum(10*time.Millisecond))
		return nil
	})
	for _, n := range b.c.Nodes() {
		n.Checkpoint()
	}
}

func (b *bench) checkpoint(id base.NodeID) error {
	return b.ctl("checkpoint", func() error {
		ck, err := b.c.CheckpointNode(id)
		if err != nil {
			return fmt.Errorf("checkpoint of %v: %w", id, err)
		}
		b.ckpts = append(b.ckpts, ck)
		return nil
	})
}

// steady runs the controller's side of a steady window: at the start of every
// slice one round of maintenance (and, on durable workloads, a checkpoint to
// disk every ckptEvery slices). Clients are already running.
func (b *bench) steady(w window) error {
	for i := range w.n {
		sleepUntil(w.start + int64(i)*w.sliceLen)
		b.maintain()
		if b.w.ckptEvery > 0 && i%b.w.ckptEvery == 0 {
			if err := b.checkpoint(b.owner); err != nil {
				return err
			}
		}
	}
	sleepUntil(w.end())
	return nil
}

// migrate moves the group to the other node of its pair.
func (b *bench) migrate() error {
	if b.w.durable {
		// A fresh generation makes the migration ship checkpoint files.
		if err := b.checkpoint(b.owner); err != nil {
			return err
		}
	}
	dst := b.w.away
	if b.owner == dst {
		dst = b.w.home
	}
	return b.ctl("migrate", func() error {
		m, err := b.ctrl.Plan(b.w.groupIDs, dst)
		if err != nil {
			return err
		}
		b.sig.gen.Add(1) // odd: in flight
		b.holdGroupWrites()
		// The migration fixes where its update stream begins, then creates
		// the group's shards on the destination: once they are there, writes
		// to the group may resume.
		released := make(chan struct{})
		var over atomic.Bool
		go func() {
			defer close(released)
			for !over.Load() {
				if _, ok := b.c.Node(dst).Store(b.w.groupIDs[0]); ok {
					break
				}
				time.Sleep(50 * time.Microsecond)
			}
			b.sig.hold.Store(false)
		}()
		rep, err := m.Run()
		over.Store(true)
		<-released
		b.sig.gen.Add(1) // even: over
		if err != nil {
			return fmt.Errorf("migration %d to %v: %w", len(b.migrations), dst, err)
		}
		if b.w.durable && rep.InitialCopy != "ckpt" {
			return fmt.Errorf("migration %d took the %q initial copy, want checkpoint shipping", len(b.migrations), rep.InitialCopy)
		}
		b.migrations = append(b.migrations, migration{end: now(), rep: *rep})
		b.owner = dst
		return nil
	})
}

// holdGroupWrites asks the clients to write outside the migrating group and
// waits until each has seen the request, that is, until every transaction
// planned before it has completed.
func (b *bench) holdGroupWrites() {
	b.sig.hold.Store(true)
	for _, cl := range b.cls {
		for !cl.sawHold.Load() {
			time.Sleep(20 * time.Microsecond)
		}
	}
}

// migrating ping-pongs the group back-to-back for n slices and returns the
// window, which starts when the first migration does. No vacuum runs here:
// Cluster.Vacuum concurrent with a migration aborts foreground transactions
// (README.md, known hazards). Clients must be running.
func (b *bench) migrating(n int, sliceLen int64) (window, error) {
	w := window{start: now(), sliceLen: sliceLen, n: n}
	for i := int64(0); now() < w.end(); i++ {
		if err := b.migrate(); err != nil {
			return w, err
		}
		if every := int64(b.w.migrateEvery); every > 0 {
			sleepUntil(min(w.start+(i+1)*every, w.end()))
		}
	}
	return w, nil
}

// startClients launches the closed-loop clients; the returned function stops
// them and waits, and may be called more than once.
func (b *bench) startClients() (stop func()) {
	var flag atomic.Bool
	var wg sync.WaitGroup
	for _, cl := range b.cls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.runUntil(&flag)
		}()
	}
	return func() {
		flag.Store(true)
		wg.Wait()
	}
}
