package repl

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"remus/internal/base"
	"remus/internal/mvcc"
	"remus/internal/simnet"
	"remus/internal/wal"
)

// benchNet models the interconnect whose per-message overhead group shipping
// amortizes: LAN bandwidth plus a commodity kernel-TCP/RPC per-message cost
// (~10µs for syscall + serialization + ack handling; simnet.LAN()'s 2µs
// models a kernel-bypass stack). No propagation latency, so the timer sees
// the hot path rather than the speed of light.
func benchNet() simnet.Config {
	return simnet.Config{BandwidthMBps: 1200, PerMsgCost: 10 * time.Microsecond}
}

// benchmarkShipCatchup measures the full catch-up hot path: a pre-built WAL
// backlog of b.N single-record commits is tailed, group-shipped and replayed
// to the destination. group=1 is the pre-batching one-message-per-transaction
// protocol; larger groups amortize the per-message cost.
func benchmarkShipCatchup(b *testing.B, group int) {
	p := newPairNet(b, benchNet())
	snapTS := p.src.Oracle().StartTS()
	startLSN := p.src.WAL().FlushLSN() + 1
	for i := 0; i < b.N; i++ {
		p.put(b, mvcc.WriteInsert, fmt.Sprintf("k%08d", i), "0123456789abcdef")
	}
	lsn := p.src.WAL().FlushLSN()
	runtime.GC() // the setup heap is large; don't bill its collection to the timed region
	b.ReportAllocs()
	b.ResetTimer()
	rep := NewReplayer(p.dst, 4, nil, nil, nil)
	prop := StartPropagator(p.src, rep, PropagatorConfig{
		Shards:     map[base.ShardID]bool{testShard: true},
		SnapTS:     snapTS,
		StartLSN:   startLSN,
		GroupTxns:  group,
		GroupDelay: 500 * time.Microsecond,
	})
	if err := prop.WaitApplied(lsn, 5*time.Minute); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(prop.ShippedRecords())/b.Elapsed().Seconds(), "recs/s")
	b.ReportMetric(float64(prop.ShippedGroups()), "msgs")
	prop.Stop()
	rep.Close()
}

func BenchmarkShipCatchup(b *testing.B) {
	for _, g := range []int{1, 8, 32} {
		b.Run(fmt.Sprintf("group=%d", g), func(b *testing.B) { benchmarkShipCatchup(b, g) })
	}
}

// BenchmarkReplayApply isolates the replayer: per-transaction apply tasks are
// pre-extracted from a real WAL, then submitted and drained through the
// striped dependency tracker and worker pool. allocs/op is the apply path's
// allocation bill per transaction.
func BenchmarkReplayApply(b *testing.B) {
	p := newPair(b)
	startLSN := p.src.WAL().FlushLSN() + 1
	for i := 0; i < b.N; i++ {
		p.put(b, mvcc.WriteInsert, fmt.Sprintf("k%08d", i), "0123456789abcdef")
	}
	type applySpec struct {
		xid      base.XID
		globalID base.TxnID
		startTS  base.Timestamp
		commitTS base.Timestamp
		records  []wal.Record
	}
	reader := p.src.WAL().NewReader(startLSN)
	buf := make([]wal.Record, 256)
	pending := map[base.XID][]wal.Record{}
	specs := make([]applySpec, 0, b.N)
	for {
		n, err := reader.TryNextBatch(buf)
		if err != nil {
			b.Fatal(err)
		}
		if n == 0 {
			break
		}
		for _, rec := range buf[:n] {
			switch {
			case rec.Type.IsChange():
				pending[rec.XID] = append(pending[rec.XID], rec)
			case rec.Type == wal.RecCommit:
				specs = append(specs, applySpec{rec.XID, rec.Txn, rec.StartTS, rec.CommitTS, pending[rec.XID]})
				delete(pending, rec.XID)
			}
		}
	}
	if len(specs) != b.N {
		b.Fatalf("extracted %d apply specs, want %d", len(specs), b.N)
	}
	rep := NewReplayer(p.dst, 8, nil, nil, nil)
	defer rep.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := range specs {
		s := &specs[i]
		rep.SubmitApply(s.xid, s.globalID, s.startTS, s.commitTS, s.records)
	}
	rep.Barrier()
	b.StopTimer()
	b.ReportMetric(float64(len(specs))/b.Elapsed().Seconds(), "txns/s")
}
