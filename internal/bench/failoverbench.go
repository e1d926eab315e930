package bench

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"remus/internal/base"
	"remus/internal/clock"
	"remus/internal/cluster"
	"remus/internal/obs"
	"remus/internal/simnet"
	"remus/internal/workload"
)

// FailoverPoint is one detection configuration of the oracle failover sweep:
// how often standbys probe the primary and how many consecutive misses
// declare it dead. Detection time is roughly Heartbeat×Misses, so the sweep
// shows the unavailability window tracking the detection budget.
type FailoverPoint struct {
	Heartbeat time.Duration
	Misses    int
}

// FailoverBenchConfig shapes the oracle failover benchmark: closed-loop RMW
// clients on a replicated-GTS cluster, the primary killed mid-run, the
// outage measured from both sides — the group's own unavailability window
// and the worst commit-to-commit stall any client observed.
type FailoverBenchConfig struct {
	// Records is the YCSB key population.
	Records int
	// Shards is the YCSB table's shard count.
	Shards int
	// Clients is the closed-loop RMW client count.
	Clients int
	// Duration is the measured window per point.
	Duration time.Duration
	// CrashAfter is when, inside the window, the oracle primary is killed.
	CrashAfter time.Duration
	// Lease is the timestamp lease size (leasing rides through failover via
	// the fencing-epoch re-lease, so the bench runs with realistic leases).
	Lease int
	// Replicas is the oracle group size.
	Replicas int
	// Batch is the HWM reservation batch (how many grants one fsync covers).
	Batch uint64
	// Net shapes the interconnect.
	Net simnet.Config
	// Points is the detection sweep; the first point is the baseline the CI
	// gate compares against.
	Points []FailoverPoint
}

// DefaultFailoverBenchConfig is sized to finish in about a second per point.
func DefaultFailoverBenchConfig() FailoverBenchConfig {
	return FailoverBenchConfig{
		Records:    2400,
		Shards:     12,
		Clients:    12,
		Duration:   1200 * time.Millisecond,
		CrashAfter: 400 * time.Millisecond,
		Lease:      64,
		Replicas:   2,
		Batch:      1024,
		Net:        simnet.Config{Latency: 25 * time.Microsecond},
		Points: []FailoverPoint{
			{Heartbeat: 1 * time.Millisecond, Misses: 2},
			{Heartbeat: 2 * time.Millisecond, Misses: 3},
			{Heartbeat: 5 * time.Millisecond, Misses: 4},
		},
	}
}

// FailoverBenchRun is one point's measurement, serialized to
// BENCH_failover.json. UnavailMs is the group's own outage window (first
// missed probe, or the crash instant if earlier, to the standby's takeover);
// StallMs is the worst commit-to-commit gap any client saw, i.e. the outage
// as the workload experienced it, including lease re-acquisition on the new
// epoch. Both are wall-clock milliseconds, gated with absolute tolerances.
type FailoverBenchRun struct {
	HeartbeatMs     float64 `json:"heartbeat_ms"`
	Misses          int     `json:"misses"`
	Lease           int     `json:"lease"`
	Replicas        int     `json:"replicas"`
	Txns            uint64  `json:"txns"`
	Aborts          uint64  `json:"aborts"`
	ElapsedSec      float64 `json:"elapsed_sec"`
	TxnsPerSec      float64 `json:"txns_per_sec"`
	Failovers       uint64  `json:"failovers"`
	UnavailMs       float64 `json:"unavail_ms"`
	StallMs         float64 `json:"stall_ms"`
	FenceRejections uint64  `json:"fence_rejections"`
	HWMPersists     uint64  `json:"hwm_persists"`
}

// RunFailoverBench sweeps the detection points. Each point gets a fresh
// cluster and its own primary kill.
func RunFailoverBench(cfg FailoverBenchConfig) ([]FailoverBenchRun, error) {
	if cfg.Records == 0 {
		cfg = DefaultFailoverBenchConfig()
	}
	var out []FailoverBenchRun
	for _, p := range cfg.Points {
		run, err := runFailoverBenchOnce(cfg, p)
		if err != nil {
			return nil, err
		}
		out = append(out, run)
	}
	return out, nil
}

// failoverClientStats is one client's tally; MaxGapNs is the longest
// commit-to-commit gap, which the primary kill stretches from microseconds
// to the full client-observed outage.
type failoverClientStats struct {
	txns     uint64
	aborts   uint64
	maxGapNs uint64
}

func runFailoverBenchOnce(cfg FailoverBenchConfig, p FailoverPoint) (FailoverBenchRun, error) {
	rec := obs.NewTrace()
	c := cluster.New(cluster.Config{
		Nodes:     3,
		Scheme:    cluster.GTS,
		Net:       cfg.Net,
		LeaseSize: cfg.Lease,
		Recorder:  rec,
		OracleHA: &clock.HAConfig{
			Replicas:  cfg.Replicas,
			Batch:     cfg.Batch,
			Heartbeat: p.Heartbeat,
			Misses:    p.Misses,
		},
	})
	defer c.Close()
	g := c.OracleGroup()
	y, err := workload.LoadYCSB(c, "accounts", cfg.Shards, nil,
		workload.YCSBConfig{Records: cfg.Records, ValueSize: 64}, base.NoNode)
	if err != nil {
		return FailoverBenchRun{}, err
	}
	tbl := y.Table

	nodes := c.Nodes()
	stats := make([]failoverClientStats, cfg.Clients)
	stop := workload.NewStopper()
	var wg sync.WaitGroup
	var firstErr error
	var errMu sync.Mutex
	t0 := time.Now()
	for i := 0; i < cfg.Clients; i++ {
		s, err := c.Connect(nodes[i%len(nodes)].ID())
		if err != nil {
			return FailoverBenchRun{}, err
		}
		wg.Add(1)
		go func(i int, s *cluster.Session) {
			defer wg.Done()
			st := &stats[i]
			rng := rand.New(rand.NewSource(int64(i) + 1))
			value := base.Value(fmt.Sprintf("failover-%02d", i))
			last := time.Now()
			for !stop.Stopped() {
				key := base.EncodeUint64Key(uint64(rng.Intn(cfg.Records)))
				tx, err := s.Begin()
				if err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
					return
				}
				if _, err := tx.Get(tbl, key); err != nil {
					tx.Abort()
					st.aborts++
					continue
				}
				if err := tx.Update(tbl, key, value); err != nil {
					tx.Abort()
					st.aborts++
					continue
				}
				if _, err := tx.Commit(); err != nil {
					st.aborts++
					continue
				}
				now := time.Now()
				if gap := uint64(now.Sub(last)); gap > st.maxGapNs {
					st.maxGapNs = gap
				}
				last = now
				st.txns++
			}
		}(i, s)
	}

	// Kill the primary mid-window; the monitor promotes the standby and the
	// clients' next lease refresh lands on the new epoch.
	time.Sleep(cfg.CrashAfter)
	g.Primary().Crash()
	time.Sleep(cfg.Duration - cfg.CrashAfter)
	stop.Stop()
	wg.Wait()
	elapsed := time.Since(t0)
	if firstErr != nil {
		return FailoverBenchRun{}, firstErr
	}

	var total failoverClientStats
	for i := range stats {
		total.txns += stats[i].txns
		total.aborts += stats[i].aborts
		if stats[i].maxGapNs > total.maxGapNs {
			total.maxGapNs = stats[i].maxGapNs
		}
	}
	run := FailoverBenchRun{
		HeartbeatMs:     float64(p.Heartbeat) / float64(time.Millisecond),
		Misses:          p.Misses,
		Lease:           cfg.Lease,
		Replicas:        cfg.Replicas,
		Txns:            total.txns,
		Aborts:          total.aborts,
		ElapsedSec:      elapsed.Seconds(),
		Failovers:       g.Failovers(),
		UnavailMs:       float64(g.LastOutage()) / float64(time.Millisecond),
		StallMs:         float64(total.maxGapNs) / 1e6,
		FenceRejections: rec.Counter(obs.CtrLeaseFenceRejections),
		HWMPersists:     rec.Counter(obs.CtrHWMPersists),
	}
	if total.txns > 0 {
		run.TxnsPerSec = float64(total.txns) / elapsed.Seconds()
	}
	return run, nil
}
