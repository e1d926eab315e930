package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"remus/internal/base"
	"remus/internal/cluster"
	"remus/internal/core"
	"remus/internal/obs"
)

// runConfig sizes one run. main derives it from the flags; the smoke test
// builds toy ones.
type runConfig struct {
	spec     spec
	seed     uint64
	trace    bool
	dir      string // scratch space of this run (durable data, probe files); removed afterwards
	spanFile string // traced runs: where the spans are written

	sliceLen     time.Duration
	steadySlices int // untraced: the steady window; traced: the traced steady window
	migSlices    int
	refSlices    int // traced runs: untraced steady slices measured first, for trace.overhead_frac

	setupRounds int // set-ups timed; the last one is used
	minBeyond   int // samples a slice needs above its p99 (10; 0 at toy size)
	sampleCap   int // preallocated samples per client
	probeCalls  int // calls per direct layer probe
	tail        time.Duration
}

// result is what one run reports.
type result struct {
	metrics   metrics
	attempted uint64
	failed    uint64
	failures  map[string]uint64
	problems  []string // failed output checks
	notes     []string // sample counts and settings, for the human reader
}

func (r *result) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// maxFailShare is the share of attempted transactions that may fail.
const maxFailShare = 1e-4

// correct reports whether every output check passed.
func (r *result) correct() bool { return len(r.problems) == 0 }

func run(cfg runConfig) (*result, error) {
	res := &result{metrics: metrics{}, failures: map[string]uint64{}}
	m := res.metrics
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return nil, err
	}

	// Set-up, several times over: one set-up is a single sample of a
	// sub-second interval, too noisy to gate on. Only the last cluster is kept.
	var b *bench
	var dataDir string
	var setups []float64
	for round := range cfg.setupRounds {
		if b != nil {
			b.discard(dataDir)
			runtime.GC()
		}
		dataDir = filepath.Join(cfg.dir, fmt.Sprintf("data-%d", round))
		if err := os.RemoveAll(dataDir); err != nil {
			return nil, err
		}
		start := time.Now()
		var err error
		if b, err = setup(cfg, dataDir); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer func() { b.discard(dataDir) }()
	m["setup_s"] = median(setups)
	res.note("set-up rounds %v s", setups)
	runtime.GC()

	sliceLen := int64(cfg.sliceLen)
	stop := b.startClients()
	defer func() { stop() }() // whichever set of clients is running on an early return

	var refW window
	if cfg.trace {
		// The same process first measures an untraced steady window, then
		// switches the recorder and the client spans on.
		refW = window{start: now(), sliceLen: sliceLen, n: cfg.refSlices}
		if err := b.steady(refW); err != nil {
			return nil, err
		}
		b.enableTrace()
	}
	steadyW := window{start: now(), sliceLen: sliceLen, n: cfg.steadySlices}
	e0 := b.readEdge()
	if err := b.steady(steadyW); err != nil {
		return nil, err
	}
	e1 := b.readEdge()
	migW, err := b.migrating(cfg.migSlices, sliceLen)
	if err != nil {
		return nil, err
	}
	e2 := b.readEdge()
	stop()
	if b.w.durable {
		// README.md, known hazards: a destination's bootstrap copy is not
		// logged, so only a checkpoint taken after the last migration makes
		// the moved rows durable; and a checkpoint taken under load can lose
		// a write that races its horizon. So the last generation is written
		// with the clients stopped; they then write for a moment more, and
		// the restart below has a WAL tail to replay on top of it.
		for _, n := range b.c.Nodes() {
			if err := b.checkpoint(n.ID()); err != nil {
				return nil, err
			}
		}
		stop = b.startClients()
		time.Sleep(cfg.tail)
		stop()
	}

	samples := make([][]sample, len(b.cls))
	for i, cl := range b.cls {
		samples[i] = cl.samples
		res.attempted += cl.attempted
		for cause, n := range cl.failures {
			res.failures[cause] += n
			res.failed += n
		}
		if cl.badReads > 0 {
			res.problem("client %d: %d reads returned a malformed value", cl.id, cl.badReads)
		}
		if cl.staleReads > 0 {
			res.problem("client %d: %d reads of its own rows missed its last acknowledged write", cl.id, cl.staleReads)
		}
		if cl.firstErr != nil {
			res.note("client %d first failure: %v", cl.id, cl.firstErr)
		}
	}
	if res.attempted == 0 {
		return nil, errors.New("no transaction was attempted")
	}
	if share := float64(res.failed) / float64(res.attempted); share > maxFailShare {
		res.problem("%d of %d transactions failed (%.2g > %.0e): %v", res.failed, res.attempted, share, maxFailShare, res.failures)
	}
	if n := res.failures[obs.CauseOther]; n > 0 {
		res.problem("%d failures have no classified cause", n)
	}

	b.verifyTable(res, b.c, "after the windows")
	if b.w.durable {
		if err := b.restart(res, dataDir); err != nil {
			return nil, err
		}
	}

	if !cfg.trace {
		return res, b.endToEndMetrics(res, steadyW, migW, samples)
	}
	ref, _, _ := medianOfSlices(refW.bucket(samples, nil), perSecond(sliceLen), 0)
	traced, _, _ := medianOfSlices(steadyW.bucket(samples, nil), perSecond(sliceLen), 0)
	m["trace.overhead_frac"] = 1 - ratio(traced, ref)
	b.layerMetrics(m, samples, steadyW, migW, e0, e1, e2)
	if f := m["cluster.span_residual_frac"]; f > 0.10 {
		res.problem("the benchmark's own share of transaction latency is %.3f, above 0.10", f)
	}
	if b.w.durable {
		user := float64(b.w.rows) * float64(len(b.w.keys[0])+b.w.valueLen)
		m["storage.disk_bytes_per_user_byte"] = ratio(float64(dirBytes(dataDir)), user)
	}
	if err := b.probes(m, cfg.dir); err != nil {
		return nil, err
	}
	if err := writeSpans(cfg.spanFile, b.cls, b.ctlSpans); err != nil {
		return nil, err
	}
	res.note("spans written to %s", cfg.spanFile)
	return res, nil
}

// endToEndMetrics fills in what an untraced run reports besides setup_s.
func (b *bench) endToEndMetrics(res *result, steadyW, migW window, samples [][]sample) error {
	m := res.metrics
	b.windowMetrics(res, "", steadyW, samples)
	b.windowMetrics(res, "mig_", migW, samples)
	var durs []float64
	var tuples, total float64
	for _, mg := range b.migrations {
		if migW.sliceOf(mg.end) >= 0 {
			durs = append(durs, mg.rep.TotalDuration.Seconds())
		}
		tuples += float64(mg.rep.Snapshot.Tuples)
		total += mg.rep.TotalDuration.Seconds()
	}
	if len(durs) == 0 {
		return fmt.Errorf("no migration completed inside the %v migrating window", time.Duration(migW.end()-migW.start))
	}
	m["mig_s_p50"] = median(durs)
	m["mig_tuples_per_s"] = ratio(tuples, total)
	res.note("%d migrations completed in the window, %d in all", len(durs), len(b.migrations))
	return nil
}

// enableTrace installs the collecting recorder on the live cluster, on the
// controller, and switches the clients' spans on from now.
func (b *bench) enableTrace() {
	b.tr = obs.NewTrace()
	b.c.Net().SetRecorder(b.tr)
	for _, n := range b.c.Nodes() {
		n.SetRecorder(b.tr)
		if st := b.c.Storage(n.ID()); st != nil {
			st.SetRecorder(b.tr)
		}
	}
	opts := core.DefaultOptions()
	opts.Recorder = b.tr
	b.ctrl = core.NewController(b.c, opts)
	from := now()
	for _, cl := range b.cls {
		cl.traceFrom.Store(from)
	}
}

// perSecond is the throughput statistic of a slice.
func perSecond(sliceLen int64) func([]uint32) (float64, error) {
	return func(s []uint32) (float64, error) { return float64(len(s)) / (float64(sliceLen) / 1e9), nil }
}

// windowMetrics computes the throughput and latency metrics of one window,
// each the median over the window's slices. The steady window (no prefix)
// also reports the median and the read/write split. A slice with too few
// samples for a percentile counts as one whole slice length of latency.
func (b *bench) windowMetrics(res *result, prefix string, w window, samples [][]sample) {
	pct := func(p float64) func([]uint32) (float64, error) {
		return func(s []uint32) (float64, error) {
			v, err := percentile(s, p, b.cfg.minBeyond)
			return v / 1e3, err
		}
	}
	all := w.bucket(samples, nil)
	gap, at := longestGap(samples, w)
	res.note("%swindow: from %.3f s, %d slices of %v; longest gap between one client's commits %.1f ms, ending %.3f s in",
		prefix, float64(w.start)/1e9, w.n, time.Duration(w.sliceLen), float64(gap)/1e6, float64(at-w.start)/1e9)

	set := func(name string, lat [][]uint32, stat func([]uint32) (float64, error)) {
		v, perSlice, starved := medianOfSlices(lat, stat, float64(w.sliceLen)/1e3)
		res.note("%s per slice %.0f (%d of %d slices starved)", name, perSlice, starved, len(lat))
		res.metrics[name] = v
	}
	set(prefix+"txn_per_s", all, perSecond(w.sliceLen))
	set(prefix+"txn_p99_us", all, pct(0.99))
	if prefix != "" {
		return
	}
	set("txn_p50_us", all, pct(0.50))
	set("read_p50_us", w.bucket(samples, func(s sample) bool { return !s.write }), pct(0.50))
	set("write_p50_us", w.bucket(samples, func(s sample) bool { return s.write }), pct(0.50))
}

// longestGap returns the longest interval inside w during which one client
// committed nothing, and when it ended.
func longestGap(samples [][]sample, w window) (gap, at int64) {
	for _, ss := range samples {
		prev := w.start
		for _, s := range ss {
			if w.sliceOf(s.end) < 0 {
				continue
			}
			if s.end-prev > gap {
				gap, at = s.end-prev, s.end
			}
			prev = s.end
		}
		if w.end()-prev > gap {
			gap, at = w.end()-prev, w.end()
		}
	}
	return gap, at
}

// verifyTable scans the whole table through a fresh session and checks every
// row: well-formed, present exactly once, at its owner's last acknowledged
// sequence.
func (b *bench) verifyTable(res *result, c *cluster.Cluster, when string) {
	sess, err := c.Connect(1)
	if err != nil {
		res.problem("%s: %v", when, err)
		return
	}
	tx, err := sess.Begin()
	if err != nil {
		res.problem("%s: %v", when, err)
		return
	}
	defer tx.Abort()
	seen := make([]bool, b.w.rows)
	var count, bad uint64
	var first error
	err = tx.ScanTable(b.w.tbl, func(k base.Key, v base.Value) bool {
		count++
		if err := b.verifyRow(k, v, seen); err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
		return true
	})
	if err != nil {
		res.problem("%s: table scan: %v", when, err)
	}
	if count != b.w.rows {
		res.problem("%s: table holds %d rows, loaded %d", when, count, b.w.rows)
	}
	if bad > 0 {
		res.problem("%s: %d rows failed their check, first: %v", when, bad, first)
	}
}

func (b *bench) verifyRow(k base.Key, v base.Value, seen []bool) error {
	if len(v) < valueHeader {
		return fmt.Errorf("key %x: value of %d bytes", k, len(v))
	}
	id := binary.BigEndian.Uint64(v)
	if id >= b.w.rows || b.w.keys[id] != k {
		return fmt.Errorf("key %x holds the value of row %d", k, id)
	}
	if seen[id] {
		return fmt.Errorf("row %d appears twice", id)
	}
	seen[id] = true
	seq, err := parseValue(v, id)
	if err != nil {
		return err
	}
	return b.cls[b.w.owner(b.w.unit(id))].ledger.check(id, seq)
}

// restart drops the cluster without closing it, reopens one on the same
// directory — checkpoint plus WAL tail, nothing else — and verifies every
// acknowledged write again.
func (b *bench) restart(res *result, dataDir string) error {
	owners := make([]base.NodeID, b.w.shards)
	for i := range owners {
		var err error
		if owners[i], err = b.c.OwnerOf(b.w.tbl.FirstShard + base.ShardID(i)); err != nil {
			return err
		}
	}
	b.c.Close()
	start := time.Now()
	c := cluster.New(b.w.config(dataDir))
	tbl, err := c.CreateTable("bench", b.w.shards, b.w.prefixLen, func(i int) base.NodeID { return owners[i] })
	if err != nil {
		return err
	}
	took := time.Since(start).Seconds()
	if tbl.FirstShard != b.w.tbl.FirstShard {
		return fmt.Errorf("restart: table came back at shard %v, was %v", tbl.FirstShard, b.w.tbl.FirstShard)
	}
	res.metrics["storage.recover_s"] = took
	res.metrics["storage.recover_tuples_per_s"] = ratio(float64(b.w.rows), took)
	b.verifyTable(res, c, "after restart from disk")
	b.c = c
	return nil
}

// discard releases a cluster's files and directory.
func (b *bench) discard(dataDir string) {
	b.c.CloseStorage()
	b.c.Close()
	os.RemoveAll(dataDir)
}

func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
