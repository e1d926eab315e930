package bench

import (
	"testing"
	"time"
)

// skipIfShort skips the multi-hundred-millisecond cluster experiments under
// `go test -short` (the race CI job runs short mode; the plain job runs all).
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping cluster experiment in -short mode")
	}
}

// tinyConsolidation shrinks the experiment for CI-speed smoke tests.
func tinyConsolidation(ap Approach, hybrid byte) ConsolidationConfig {
	cfg := DefaultConsolidationConfig(ap, hybrid)
	cfg.Nodes = 3
	cfg.ShardsPerNode = 4
	cfg.Records = 600
	cfg.Clients = 6
	cfg.Batches = 2
	cfg.RowsPerBatch = 400
	cfg.BatchChunk = 16
	cfg.BatchRowDelay = 8 * time.Millisecond // each batch ~200ms: overlaps the migrations
	cfg.Warmup = 150 * time.Millisecond
	cfg.BatchLead = 100 * time.Millisecond
	cfg.Tail = 150 * time.Millisecond
	return cfg
}

func checkConsolidation(t *testing.T, r *ConsolidationResult, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("unexpected workload errors: %v", r.Errors)
	}
	if r.DupKeys != 0 {
		t.Fatalf("%d duplicate keys after consolidation", r.DupKeys)
	}
	if r.YCSBBefore.Commits == 0 {
		t.Fatalf("no traffic recorded before migration: %+v", r.YCSBBefore)
	}
}

func TestConsolidationHybridARemus(t *testing.T) {
	skipIfShort(t)
	r, err := RunConsolidation(tinyConsolidation(Remus, 'A'))
	checkConsolidation(t, r, err)
	if r.MigrationAbortTotal != 0 {
		t.Errorf("Remus caused %d migration aborts", r.MigrationAbortTotal)
	}
	if r.BatchAbortRatio != 0 {
		t.Errorf("Remus batch abort ratio = %v, want 0", r.BatchAbortRatio)
	}
}

func TestConsolidationHybridALockAbort(t *testing.T) {
	skipIfShort(t)
	r, err := RunConsolidation(tinyConsolidation(LockAbort, 'A'))
	checkConsolidation(t, r, err)
	// lock-and-abort must abort batch transactions (the Table 2 headline).
	if r.MigrationAbortTotal == 0 {
		t.Error("lock-and-abort caused no migration aborts under hybrid A")
	}
}

func TestConsolidationHybridARemaster(t *testing.T) {
	skipIfShort(t)
	r, err := RunConsolidation(tinyConsolidation(Remaster, 'A'))
	checkConsolidation(t, r, err)
	if r.MigrationAbortTotal != 0 {
		t.Errorf("remaster caused %d migration aborts", r.MigrationAbortTotal)
	}
}

func TestConsolidationHybridASquall(t *testing.T) {
	skipIfShort(t)
	r, err := RunConsolidation(tinyConsolidation(SquallA, 'A'))
	checkConsolidation(t, r, err)
}

func TestConsolidationHybridBRemus(t *testing.T) {
	skipIfShort(t)
	cfg := tinyConsolidation(Remus, 'B')
	cfg.GroupSize = 4
	r, err := RunConsolidation(cfg)
	checkConsolidation(t, r, err)
	if r.MigrationAbortTotal != 0 {
		t.Errorf("Remus caused %d migration aborts under hybrid B", r.MigrationAbortTotal)
	}
}

func TestConsolidationHybridBRemaster(t *testing.T) {
	skipIfShort(t)
	cfg := tinyConsolidation(Remaster, 'B')
	cfg.GroupSize = 4
	r, err := RunConsolidation(cfg)
	checkConsolidation(t, r, err)
}

func TestConsolidationHybridBSquall(t *testing.T) {
	skipIfShort(t)
	cfg := tinyConsolidation(SquallA, 'B')
	cfg.GroupSize = 4
	r, err := RunConsolidation(cfg)
	checkConsolidation(t, r, err)
}

func TestLoadBalanceRemusAndSquall(t *testing.T) {
	skipIfShort(t)
	for _, ap := range []Approach{Remus, SquallA} {
		cfg := DefaultLoadBalanceConfig(ap)
		cfg.Nodes = 3
		cfg.ShardsPerNode = 5
		cfg.Records = 900
		cfg.Clients = 6
		cfg.Warmup = 150 * time.Millisecond
		cfg.Tail = 150 * time.Millisecond
		r, err := RunLoadBalance(cfg)
		if err != nil {
			t.Fatalf("%v: %v", ap, err)
		}
		if len(r.Errors) != 0 {
			t.Fatalf("%v: unexpected errors %v", ap, r.Errors)
		}
		if r.DupKeys != 0 {
			t.Fatalf("%v: %d dup keys", ap, r.DupKeys)
		}
		if ap == Remus && r.MigrationAborts != 0 {
			t.Errorf("remus migration aborts = %d", r.MigrationAborts)
		}
	}
}

func TestScaleOutRemus(t *testing.T) {
	skipIfShort(t)
	cfg := DefaultScaleOutConfig(Remus)
	cfg.Nodes = 2
	cfg.WarehousesPerNode = 2
	cfg.Warmup = 200 * time.Millisecond
	cfg.Tail = 200 * time.Millisecond
	r, err := RunScaleOut(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", r.Errors)
	}
	if !r.Consistent {
		t.Error("TPC-C inconsistent after scale-out")
	}
	if r.MigrationAborts != 0 {
		t.Errorf("remus migration aborts = %d", r.MigrationAborts)
	}
	if r.Before.Commits == 0 || r.After.Commits == 0 {
		t.Fatalf("no TPC-C traffic: before=%d after=%d", r.Before.Commits, r.After.Commits)
	}
}

func TestScaleOutLockAbortAndRemaster(t *testing.T) {
	skipIfShort(t)
	for _, ap := range []Approach{LockAbort, Remaster} {
		cfg := DefaultScaleOutConfig(ap)
		cfg.Nodes = 2
		cfg.WarehousesPerNode = 2
		cfg.Warmup = 150 * time.Millisecond
		cfg.Tail = 150 * time.Millisecond
		r, err := RunScaleOut(cfg)
		if err != nil {
			t.Fatalf("%v: %v", ap, err)
		}
		if !r.Consistent {
			t.Errorf("%v: inconsistent", ap)
		}
		if len(r.Errors) != 0 {
			t.Fatalf("%v: unexpected errors %v", ap, r.Errors)
		}
	}
}

func TestContention(t *testing.T) {
	skipIfShort(t)
	cfg := DefaultContentionConfig()
	cfg.Clients = 8
	cfg.Warmup = 200 * time.Millisecond
	cfg.Run = 200 * time.Millisecond
	r, err := RunContention(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Errors) != 0 {
		t.Fatalf("unexpected errors: %v", r.Errors)
	}
	if r.Before.Commits == 0 || r.After.Commits == 0 {
		t.Fatal("no traffic")
	}
	if r.ClientWWConflicts == 0 {
		t.Error("high-contention run produced no client WW-conflicts")
	}
	if r.DestCPUPeakPct <= 0 {
		t.Error("no replay work observed on the destination")
	}
	if r.MaxChainLen < 2 {
		t.Errorf("max chain length = %d; contention not building chains", r.MaxChainLen)
	}
}

func TestMetricsBasics(t *testing.T) {
	m := NewMetrics(10 * time.Millisecond)
	m.Record("x", time.Millisecond, nil, 2)
	m.MarkNow("ev")
	time.Sleep(25 * time.Millisecond)
	m.Record("x", 3*time.Millisecond, nil, 0)
	// A generous window: the sleep may overshoot under load.
	w := m.WindowStats("x", 0, time.Second)
	if w.Commits != 2 || w.Tuples != 2 {
		t.Fatalf("window = %+v", w)
	}
	if w.AvgLatency != 2*time.Millisecond {
		t.Fatalf("avg latency = %v", w.AvgLatency)
	}
	if _, ok := m.MarkOffset("ev"); !ok {
		t.Fatal("mark lost")
	}
	if len(m.Ops()) != 1 || m.Ops()[0] != "x" {
		t.Fatalf("ops = %v", m.Ops())
	}
	if out := m.RenderSeries("x"); out == "" {
		t.Fatal("empty render")
	}
	if tp := m.Throughput("x"); len(tp) == 0 || tp[0] != 100 {
		t.Fatalf("throughput = %v", tp)
	}
}

func TestWindowZeroRuns(t *testing.T) {
	m := NewMetrics(10 * time.Millisecond)
	m.Record("x", time.Millisecond, nil, 0) // bucket 0
	time.Sleep(45 * time.Millisecond)
	m.Record("x", time.Millisecond, nil, 0) // bucket 4
	w := m.WindowStats("x", 0, time.Second)
	if w.ZeroIntervals < 3 {
		t.Fatalf("zero intervals = %d, want >= 3", w.ZeroIntervals)
	}
	if w.MaxZeroRun < 30*time.Millisecond {
		t.Fatalf("max zero run = %v, want >= 30ms", w.MaxZeroRun)
	}
}

func TestFailoverBenchTiny(t *testing.T) {
	skipIfShort(t)
	cfg := DefaultFailoverBenchConfig()
	cfg.Records = 240
	cfg.Shards = 6
	cfg.Clients = 6
	cfg.Duration = 300 * time.Millisecond
	cfg.CrashAfter = 100 * time.Millisecond
	cfg.Points = []FailoverPoint{{Heartbeat: time.Millisecond, Misses: 2}}
	runs, err := RunFailoverBench(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 {
		t.Fatalf("%d points, want 1", len(runs))
	}
	r := runs[0]
	if r.Txns == 0 {
		t.Error("no committed transactions through the failover")
	}
	if r.Failovers < 1 {
		t.Errorf("failovers = %d, want >= 1 (the primary was killed)", r.Failovers)
	}
	if r.UnavailMs <= 0 {
		t.Errorf("unavail_ms = %v, want > 0", r.UnavailMs)
	}
	if r.StallMs < r.UnavailMs {
		t.Errorf("stall_ms = %v below unavail_ms = %v: clients cannot outrun the outage", r.StallMs, r.UnavailMs)
	}
	if r.HWMPersists == 0 {
		t.Error("hwm_persists = 0, want persists backing the grants")
	}
}
