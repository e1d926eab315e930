package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"time"

	"remus/internal/obs"
)

// Benchmark-side spans. A traced run wraps every call the client makes into
// the cluster's public API in a span; the spans of one transaction share its
// id and hang off one root span, whose self time is what the benchmark itself
// costs. Spans live in per-client memory and are written out when the run
// ends. Spans inside the program are a later change.
type spanName uint8

const (
	spTxn spanName = iota // root: one whole client transaction
	spBegin
	spRead
	spScan
	spWrite
	spCommit
)

var spanNames = [...]string{"txn", "begin", "stmt_read", "scan", "stmt_write", "commit"}

type spanRec struct {
	start int64 // ns since the run epoch
	dur   uint32
	name  spanName
	txn   uint64 // cluster transaction id; children follow their root in the buffer
}

// ctlSpan is one controller action: a vacuum pass, a checkpoint, a migration.
type ctlSpan struct {
	name       string
	start, end int64
}

// maxSpansWritten caps the spans written per client: the file is for reading
// individual transactions, the metrics use every span in memory.
const maxSpansWritten = 100_000

// clock reads the time only when the current transaction is traced.
func (cl *client) clock() int64 {
	if !cl.tracing {
		return 0
	}
	return now()
}

func (cl *client) span(name spanName, start int64, txn uint64) {
	if cl.tracing {
		cl.spans = append(cl.spans, spanRec{start: start, dur: uint32(min(now()-start, math.MaxUint32)), name: name, txn: txn})
	}
}

// openRoot reserves the root span of a transaction; closeRoot completes it
// with the same timestamps the latency sample uses and copies the
// transaction id up from its first child.
func (cl *client) openRoot(start int64) int {
	if !cl.tracing {
		return -1
	}
	cl.spans = append(cl.spans, spanRec{start: start, name: spTxn})
	return len(cl.spans) - 1
}

func (cl *client) closeRoot(root int, end int64) {
	if root < 0 {
		return
	}
	r := &cl.spans[root]
	r.dur = uint32(min(end-r.start, math.MaxUint32))
	if root+1 < len(cl.spans) {
		r.txn = cl.spans[root+1].txn
	}
}

// spanStats walks the clients' span buffers: per span name the durations of
// spans whose transaction committed inside w, per transaction the root's self
// time.
type spanStats struct {
	dur      [len(spanNames)][]uint32
	self     []uint32
	selfSum  int64
	txnSum   int64
	children []interval // scratch
}

func collectSpans(cls []*client, w window) *spanStats {
	st := &spanStats{}
	for _, cl := range cls {
		for i := 0; i < len(cl.spans); {
			root := cl.spans[i]
			j := i + 1
			for j < len(cl.spans) && cl.spans[j].name != spTxn {
				j++
			}
			if w.sliceOf(root.start+int64(root.dur)) >= 0 {
				st.children = st.children[:0]
				for _, c := range cl.spans[i+1 : j] {
					st.dur[c.name] = append(st.dur[c.name], c.dur)
					st.children = append(st.children, interval{c.start, c.start + int64(c.dur)})
				}
				self := selfTime(interval{root.start, root.start + int64(root.dur)}, st.children)
				st.dur[spTxn] = append(st.dur[spTxn], root.dur)
				st.self = append(st.self, uint32(self))
				st.selfSum += self
				st.txnSum += int64(root.dur)
			}
			i = j
		}
	}
	return st
}

// p50us is the median of a set of ns durations in µs; 0 when there are none
// (a workload that never scans has no scan spans).
func p50us(ns []uint32) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := slices.Clone(ns)
	slices.Sort(s)
	return float64(s[len(s)/2]) / 1e3
}

// writeSpans writes the controller's spans and the first maxSpansWritten
// spans of every client as JSON lines.
func writeSpans(path string, cls []*client, ctl []ctlSpan) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	out := bufio.NewWriter(f)
	for _, s := range ctl {
		fmt.Fprintf(out, `{"client":-1,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n", s.name, s.start, s.end)
	}
	for _, cl := range cls {
		for _, s := range cl.spans[:min(len(cl.spans), maxSpansWritten)] {
			parent := `,"parent":"txn"`
			if s.name == spTxn {
				parent = ""
			}
			fmt.Fprintf(out, `{"client":%d,"txn":%d,"name":%q%s,"start_ns":%d,"end_ns":%d}`+"\n",
				cl.id, s.txn, spanNames[s.name], parent, s.start, s.start+int64(s.dur))
		}
	}
	if err := out.Flush(); err != nil {
		return err
	}
	return f.Close()
}

// edge is a reading of the layers' public counters at a window edge.
type edge struct {
	netMsgs, netBytes   uint64
	walBytes, walSyncs  uint64
	resolves, lockFree  uint64
	swaps, collisions   uint64
	gtsReq, leaseRefr   uint64
	wwAborts, migAborts uint64
}

func (b *bench) readEdge() edge {
	e := edge{netMsgs: b.c.Net().Messages(), netBytes: b.c.Net().Bytes()}
	for _, n := range b.c.Nodes() {
		e.walBytes += n.WAL().Bytes()
		e.walSyncs += n.WAL().Syncs()
		// Only the GTS oracles count round trips to the sequencer, and only
		// the leased one counts refreshes; nothing feeds the obs counters
		// of the same names.
		if o, ok := n.Oracle().(interface{ GTSRequests() uint64 }); ok {
			e.gtsReq += o.GTSRequests()
		}
		if o, ok := n.Oracle().(interface{ Refreshes() uint64 }); ok {
			e.leaseRefr += o.Refreshes()
		}
		for _, id := range n.Shards() {
			if st, ok := n.Store(id); ok {
				e.resolves += st.Resolves()
				e.lockFree += st.LockFreeResolves()
				e.swaps += st.VersionArraySwaps()
				e.collisions += st.LockStripeCollisions()
			}
		}
	}
	if b.tr != nil {
		e.wwAborts = b.tr.Counter(obs.CtrWWConflicts)
		e.migAborts = b.tr.Counter(obs.CtrMigrationAborts)
	}
	return e
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// commitsIn counts the samples completed inside w, and those that wrote.
func commitsIn(samples [][]sample, w window) (all, writes float64) {
	for _, ss := range samples {
		for _, s := range ss {
			if w.sliceOf(s.end) >= 0 {
				all++
				if s.write {
					writes++
				}
			}
		}
	}
	return
}

// layerMetrics turns the traced windows into the per-layer block. e0..e1
// bracket the traced steady window, e1..e2 the migrating one.
func (b *bench) layerMetrics(m metrics, samples [][]sample, steadyW, migW window, e0, e1, e2 edge) {
	st := collectSpans(b.cls, steadyW)
	m["cluster.begin_us_p50"] = p50us(st.dur[spBegin])
	m["cluster.stmt_read_us_p50"] = p50us(st.dur[spRead])
	m["cluster.stmt_write_us_p50"] = p50us(st.dur[spWrite])
	m["cluster.scan_us_p50"] = p50us(st.dur[spScan])
	m["cluster.commit_us_p50"] = p50us(st.dur[spCommit])
	m["cluster.driver_self_us_p50"] = p50us(st.self)
	m["cluster.span_residual_frac"] = ratio(float64(st.selfSum), float64(st.txnSum))
	var parts, traced float64
	for _, cl := range b.cls {
		parts += float64(cl.participants)
		traced += float64(cl.tracedTxns)
	}
	m["cluster.participants_per_txn"] = ratio(parts, traced)

	txns, writes := commitsIn(samples, steadyW)
	m["simnet.msgs_per_txn"] = ratio(float64(e1.netMsgs-e0.netMsgs), txns)
	m["simnet.bytes_per_txn"] = ratio(float64(e1.netBytes-e0.netBytes), txns)
	m["clock.gts_requests_per_txn"] = ratio(float64(e1.gtsReq-e0.gtsReq), txns)
	m["clock.lease_refreshes_per_ktxn"] = ratio(float64(e1.leaseRefr-e0.leaseRefr), txns/1e3)
	m["wal.bytes_per_write_txn"] = ratio(float64(e1.walBytes-e0.walBytes), writes)
	m["wal.syncs_per_write_txn"] = ratio(float64(e1.walSyncs-e0.walSyncs), writes)
	m["mvcc.array_swaps_per_write"] = ratio(float64(e1.swaps-e0.swaps), float64(len(st.dur[spWrite])))
	m["mvcc.lockfree_resolve_frac"] = ratio(float64(e1.lockFree-e0.lockFree), float64(e1.resolves-e0.resolves))
	m["mvcc.lock_collisions"] = float64(e1.collisions - e0.collisions)
	m["txn.aborts_ww"] = float64(e2.wwAborts - e0.wwAborts)
	m["txn.aborts_migration"] = float64(e2.migAborts - e0.migAborts)
	m["txn.commit_ns_p50"] = float64(b.tr.Histogram(obs.HistCommitLatency).Quantile(0.5))

	var keys, versions, clogEntries float64
	for _, n := range b.c.Nodes() {
		clogEntries += float64(n.CLOG().Len())
		for _, id := range n.Shards() {
			if s, ok := n.Store(id); ok {
				keys += float64(s.Keys())
				versions += float64(s.Versions())
			}
		}
	}
	m["mvcc.versions_per_key_end"] = ratio(versions, keys)
	m["clog.entries_end"] = clogEntries

	// Migrations: every report of the traced migrating window.
	var total, phases, copyDur time.Duration
	var tuples, bytes, shipped, validations, unsync, drained, ckptCopies float64
	var snap, catchup, mode, divert, dual []float64
	for _, mg := range b.migrations {
		r := mg.rep
		total += r.TotalDuration
		phases += r.SnapshotDuration + r.CatchupDuration + r.ModeChangeDuration + r.DiversionDuration + r.DualDuration
		copyDur += r.SnapshotDuration
		tuples += float64(r.Snapshot.Tuples)
		bytes += float64(r.Snapshot.Bytes)
		shipped += float64(r.ShippedRecords)
		validations += float64(r.Validations)
		unsync += float64(r.UnsyncTxns)
		drained += float64(r.DrainedTxns)
		if r.InitialCopy == "ckpt" {
			ckptCopies++
		}
		snap = append(snap, r.SnapshotDuration.Seconds())
		catchup = append(catchup, r.CatchupDuration.Seconds())
		mode = append(mode, r.ModeChangeDuration.Seconds())
		divert = append(divert, r.DiversionDuration.Seconds())
		dual = append(dual, r.DualDuration.Seconds())
	}
	migs := float64(len(b.migrations))
	migTxns, _ := commitsIn(samples, migW)
	fgBytes := m["simnet.bytes_per_txn"] * migTxns
	m["simnet.mig_bytes_per_tuple"] = ratio(max(float64(e2.netBytes-e1.netBytes)-fgBytes, 0), tuples)
	m["repl.copy_tuples_per_s"] = ratio(tuples, copyDur.Seconds())
	m["repl.copy_bytes_per_tuple"] = ratio(bytes, tuples)
	m["repl.shipped_records_per_mig"] = ratio(shipped, migs)
	m["repl.txns_per_ship_group_p50"] = float64(b.tr.Histogram(obs.HistShipGroupTxns).Quantile(0.5))
	m["repl.catchup_lag_p50"] = float64(b.tr.Histogram(obs.HistCatchupLag).Quantile(0.5))
	m["repl.spilled_txns"] = float64(b.tr.Counter(obs.CtrSpilledTxns))
	m["repl.replay_conflicts"] = float64(b.tr.Counter(obs.CtrReplayConflicts))
	m["core.snapshot_s_p50"] = median(snap)
	m["core.catchup_s_p50"] = median(catchup)
	m["core.modechange_s_p50"] = median(mode)
	m["core.diversion_s_p50"] = median(divert)
	m["core.dual_s_p50"] = median(dual)
	m["core.phase_residual_frac"] = ratio((total - phases).Seconds(), total.Seconds())
	m["core.ckpt_copy_frac"] = ratio(ckptCopies, migs)
	m["core.validations_per_mig"] = ratio(validations, migs)
	m["core.validation_wait_us_p99"] = float64(b.tr.Histogram(obs.HistValidationWait).Quantile(0.99)) / 1e3
	m["core.block_wait_us_p99"] = float64(b.tr.Histogram(obs.HistBlockWait).Quantile(0.99)) / 1e3
	m["core.unsync_txns_per_mig"] = ratio(unsync, migs)
	m["core.drained_txns_per_mig"] = ratio(drained, migs)
	stall, _ := longestGap(samples, migW)
	m["core.fg_stall_ms_max"] = float64(stall) / 1e6

	var vac, ckpt []float64
	var fg []uint32
	for _, s := range b.ctlSpans {
		switch s.name {
		case "vacuum":
			vac = append(vac, float64(s.end-s.start)/1e9)
		case "checkpoint":
			ckpt = append(ckpt, float64(s.end-s.start)/1e9)
			// Foreground transactions that overlapped this checkpoint.
			for _, ss := range samples {
				for _, t := range ss {
					if t.end > s.start && t.end-int64(t.lat) < s.end && steadyW.sliceOf(t.end) >= 0 {
						fg = append(fg, t.lat)
					}
				}
			}
		}
	}
	m["node.vacuum_s_p50"] = median(vac)
	var reclaimed float64
	for _, n := range b.vacuumed {
		reclaimed += float64(n)
	}
	m["node.vacuum_reclaimed_per_pass"] = ratio(reclaimed, float64(len(b.vacuumed)))
	m["storage.ckpt_s_p50"] = median(ckpt)
	var ckTuples, ckBytes float64
	for _, ck := range b.ckpts {
		for _, sc := range ck.Shards {
			ckTuples += float64(sc.Tuples)
			ckBytes += float64(sc.Bytes)
		}
	}
	m["storage.ckpt_bytes_per_tuple"] = ratio(ckBytes, ckTuples)
	if len(fg) > 0 {
		slices.Sort(fg)
		m["storage.ckpt_fg_p99_us"] = float64(fg[min(len(fg)*99/100, len(fg)-1)]) / 1e3
	}
}
