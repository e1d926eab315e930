// Command remus-bench regenerates the paper's evaluation tables and figures
// (§4) on the in-process cluster. Examples:
//
//	remus-bench -exp fig6                 # hybrid A consolidation series, all approaches
//	remus-bench -exp fig7 -approach remus # hybrid B, one approach
//	remus-bench -exp table2               # batch ingest abort/throughput table
//	remus-bench -exp table3               # latency increase table
//	remus-bench -exp all                  # everything
//
// The -scale flag trades runtime for fidelity: "small" (default) finishes in
// seconds per experiment; "large" uses bigger datasets and longer windows.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"remus/internal/bench"
	"remus/internal/obs"
	"remus/internal/simnet"
)

func main() {
	if err := realMain(); err != nil {
		fmt.Fprintf(os.Stderr, "remus-bench: %v\n", err)
		os.Exit(1)
	}
}

// realMain carries the actual work so the profile-flushing defers run before
// the process exits (os.Exit in main would skip them).
func realMain() error {
	exp := flag.String("exp", "all", "experiment: fig6|fig7|fig8|fig9|fig10|table1|table2|table3|autobalance|faults|all")
	approach := flag.String("approach", "", "restrict to one approach: remus|lockabort|remaster|squall")
	scale := flag.String("scale", "small", "small|large")
	series := flag.Bool("series", true, "print throughput time series for figure experiments")
	trace := flag.String("trace", "", "append the observability event stream of each figure run as JSONL to this file and print per-phase breakdowns")
	autobalance := flag.Bool("autobalance", false, "run the skew-rebalance scenario: none vs hand-placed vs planner-driven migration (shorthand for -exp autobalance)")
	faults := flag.Bool("faults", false, "run the fault-degradation scenario: clean vs faulted migration under load (shorthand for -exp faults)")
	faultDrop := flag.Float64("fault-drop", 0.02, "per-message drop probability for -exp faults")
	faultPartition := flag.Duration("fault-partition", 120*time.Millisecond, "src<->dst partition window for -exp faults (0 disables)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-plane rng seed for -exp faults (replays a run exactly)")
	failoverBench := flag.Bool("oracle-failover", false, "run the oracle failover benchmark (kill the primary GTS mid-run, measure the unavailability window) instead of the paper experiments")
	failoverOut := flag.String("failover-out", "BENCH_failover.json", "output file for -oracle-failover results")
	failoverDur := flag.Duration("failover-dur", 0, "measured window per -oracle-failover point (0 uses the default)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "remus-bench: memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "remus-bench: memprofile: %v\n", err)
			}
		}()
	}

	if *failoverBench {
		return runFailoverBench(*failoverOut, *failoverDur)
	}

	r := &runner{
		scale: *scale, series: *series, tracePath: *trace,
		faultDrop: *faultDrop, faultPartition: *faultPartition, faultSeed: *faultSeed,
	}
	if *approach != "" {
		r.only = bench.Approach(*approach)
	}

	exps := []string{*exp}
	if *autobalance {
		exps = []string{"autobalance"}
	} else if *faults {
		exps = []string{"faults"}
	} else if *exp == "all" {
		exps = []string{"fig6", "fig7", "fig8", "fig9", "fig10", "table1", "table2", "table3", "ablation", "autobalance", "faults"}
	}
	for _, e := range exps {
		if err := r.run(e); err != nil {
			return fmt.Errorf("%s: %w", e, err)
		}
	}
	return nil
}

// runFailoverBench kills the oracle primary mid-run at each detection
// configuration and writes the unavailability measurements as JSON.
func runFailoverBench(out string, dur time.Duration) error {
	cfg := bench.DefaultFailoverBenchConfig()
	if dur > 0 {
		cfg.Duration = dur
		if cfg.CrashAfter >= dur {
			cfg.CrashAfter = dur / 3
		}
	}
	fmt.Printf("oracle failover: %d clients, %d oracle replicas, lease=%d, primary killed at %v of %v\n",
		cfg.Clients, cfg.Replicas, cfg.Lease, cfg.CrashAfter, cfg.Duration)
	runs, err := bench.RunFailoverBench(cfg)
	if err != nil {
		return err
	}
	for _, r := range runs {
		fmt.Printf("  hb=%-4.1fms misses=%d %8.0f txns/s  %d failover(s)  unavail %6.1fms  stall %6.1fms  %d fence rejections  %d hwm persists\n",
			r.HeartbeatMs, r.Misses, r.TxnsPerSec, r.Failovers, r.UnavailMs, r.StallMs,
			r.FenceRejections, r.HWMPersists)
	}
	data, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", out)
	return nil
}

type runner struct {
	scale     string
	series    bool
	only      bench.Approach
	tracePath string

	faultDrop      float64
	faultPartition time.Duration
	faultSeed      int64
}

func (r *runner) approaches(all []bench.Approach) []bench.Approach {
	if r.only != "" {
		return []bench.Approach{r.only}
	}
	return all
}

// trace returns a fresh per-run Trace when -trace is set (nil otherwise), so
// breakdowns from different approaches never merge. The label lands in the
// JSONL stream as a mark event separating the runs.
func (r *runner) trace(label string) *obs.Trace {
	if r.tracePath == "" {
		return nil
	}
	tr := obs.NewTrace()
	tr.Mark(label)
	return tr
}

// rec adapts a possibly-nil *obs.Trace to the Recorder config fields (a nil
// concrete pointer must become a nil interface, not a non-nil one).
func rec(tr *obs.Trace) obs.Recorder {
	if tr == nil {
		return nil
	}
	return tr
}

// finishTrace prints the run's per-phase breakdown and appends its event
// stream to the -trace file.
func (r *runner) finishTrace(tr *obs.Trace, label string) error {
	if tr == nil {
		return nil
	}
	if bd := tr.Breakdown(); len(bd) > 0 {
		fmt.Printf("\n--- %s: per-phase breakdown ---\n", label)
		fmt.Print(bench.FormatPhaseBreakdown(bd))
	}
	if dropped := tr.Dropped(); dropped > 0 {
		fmt.Printf("(trace buffer overflow: %d events dropped)\n", dropped)
	}
	f, err := os.OpenFile(r.tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	if err := tr.WriteJSONL(f); err != nil {
		return fmt.Errorf("trace write: %w", err)
	}
	return nil
}

func (r *runner) scaleConsolidation(cfg bench.ConsolidationConfig) bench.ConsolidationConfig {
	if r.scale == "large" {
		cfg.Records *= 8
		cfg.Clients *= 3
		cfg.RowsPerBatch *= 4
		cfg.Batches += 2
		cfg.Warmup *= 2
		cfg.Tail *= 2
	}
	return cfg
}

func (r *runner) run(exp string) error {
	fmt.Printf("\n================ %s ================\n", exp)
	switch exp {
	case "fig6", "table1", "table2":
		var results []*bench.ConsolidationResult
		var rows []bench.Table1Row
		for _, ap := range r.approaches(bench.Approaches) {
			cfg := r.scaleConsolidation(bench.DefaultConsolidationConfig(ap, 'A'))
			tr := r.trace(fmt.Sprintf("exp=%s approach=%v", exp, ap))
			cfg.Recorder = rec(tr)
			res, err := bench.RunConsolidation(cfg)
			if err != nil {
				return err
			}
			results = append(results, res)
			rows = append(rows, bench.Table1FromConsolidation(res))
			if exp == "fig6" && r.series {
				fmt.Printf("\n--- %v: YCSB throughput during hybrid-A consolidation ---\n", ap)
				fmt.Print(res.Metrics.RenderSeries("ycsb", "batch"))
			}
			fmt.Printf("%v: migration=%v dups=%d migAborts=%d batchAbortRatio=%.0f%%\n",
				ap, res.MigrationDuration.Round(time.Millisecond), res.DupKeys,
				res.MigrationAbortTotal, 100*res.BatchAbortRatio)
			if err := r.finishTrace(tr, fmt.Sprintf("%s/%v", exp, ap)); err != nil {
				return err
			}
		}
		if exp == "table2" {
			fmt.Println("\nTable 2 — batch insert under hybrid workload A:")
			fmt.Print(bench.FormatTable2(results))
		}
		if exp == "table1" {
			fmt.Println("\nTable 1 (measured) — comparison matrix:")
			fmt.Print(bench.FormatTable1(rows))
		}

	case "fig7":
		for _, ap := range r.approaches(bench.Approaches) {
			cfg := r.scaleConsolidation(bench.DefaultConsolidationConfig(ap, 'B'))
			cfg.GroupSize = 4
			tr := r.trace(fmt.Sprintf("exp=fig7 approach=%v", ap))
			cfg.Recorder = rec(tr)
			res, err := bench.RunConsolidation(cfg)
			if err != nil {
				return err
			}
			if r.series {
				fmt.Printf("\n--- %v: YCSB throughput during hybrid-B consolidation ---\n", ap)
				fmt.Print(res.Metrics.RenderSeries("ycsb"))
			}
			fmt.Printf("%v: migration=%v dups=%d migAborts=%d maxZeroRun=%v\n",
				ap, res.MigrationDuration.Round(time.Millisecond), res.DupKeys,
				res.MigrationAbortTotal, res.YCSBDuring.MaxZeroRun)
			if err := r.finishTrace(tr, fmt.Sprintf("fig7/%v", ap)); err != nil {
				return err
			}
		}

	case "fig8":
		for _, ap := range r.approaches(bench.Approaches) {
			cfg := bench.DefaultLoadBalanceConfig(ap)
			tr := r.trace(fmt.Sprintf("exp=fig8 approach=%v", ap))
			cfg.Recorder = rec(tr)
			res, err := bench.RunLoadBalance(cfg)
			if err != nil {
				return err
			}
			if r.series {
				fmt.Printf("\n--- %v: skewed YCSB throughput during load balancing ---\n", ap)
				fmt.Print(res.Metrics.RenderSeries("ycsb"))
			}
			fmt.Printf("%v: before=%.0f/s during=%.0f/s after=%.0f/s migAborts=%d ww=%d\n",
				ap, res.Before.Throughput, res.During.Throughput, res.After.Throughput,
				res.MigrationAborts, res.WWConflicts)
			if err := r.finishTrace(tr, fmt.Sprintf("fig8/%v", ap)); err != nil {
				return err
			}
		}

	case "fig9":
		// Squall is excluded, as in the paper (§4.6: no multi-key range
		// partitioning support).
		for _, ap := range r.approaches([]bench.Approach{bench.Remus, bench.LockAbort, bench.Remaster}) {
			cfg := bench.DefaultScaleOutConfig(ap)
			tr := r.trace(fmt.Sprintf("exp=fig9 approach=%v", ap))
			cfg.Recorder = rec(tr)
			res, err := bench.RunScaleOut(cfg)
			if err != nil {
				return err
			}
			if r.series {
				fmt.Printf("\n--- %v: TPC-C throughput during scale-out ---\n", ap)
				fmt.Print(res.Metrics.RenderSeries("neworder", "payment"))
			}
			fmt.Printf("%v: before=%.0f/s during=%.0f/s after=%.0f/s migAborts=%d consistent=%v\n",
				ap, res.Before.Throughput, res.During.Throughput, res.After.Throughput,
				res.MigrationAborts, res.Consistent)
			if err := r.finishTrace(tr, fmt.Sprintf("fig9/%v", ap)); err != nil {
				return err
			}
		}

	case "fig10":
		cfg := bench.DefaultContentionConfig()
		tr := r.trace("exp=fig10 approach=remus")
		cfg.Recorder = rec(tr)
		res, err := bench.RunContention(cfg)
		if err != nil {
			return err
		}
		if r.series {
			fmt.Println("\n--- Remus: throughput under high-contention YCSB ---")
			fmt.Print(res.Metrics.RenderSeries("ycsb"))
		}
		fmt.Printf("before=%.0f/s duringCopy=%.0f/s after=%.0f/s\n",
			res.Before.Throughput, res.DuringCopy.Throughput, res.After.Throughput)
		fmt.Printf("cpu proxy peak: source=%.1f%% dest=%.1f%%\n",
			res.SourceCPUPeakPct, res.DestCPUPeakPct)
		fmt.Printf("ww-conflicts: clients=%d mocc(shadow-vs-dest)=%d maxChain=%d\n",
			res.ClientWWConflicts, res.MOCCConflicts, res.MaxChainLen)
		if err := r.finishTrace(tr, "fig10/remus"); err != nil {
			return err
		}

	case "autobalance":
		// The planner's acceptance run: none (capacity-bound lower bound) vs
		// manual (§4.5 oracle striping) vs planner (autonomous rebalance loop).
		var manual, auto *bench.AutoBalanceResult
		for _, mode := range bench.AutoBalanceModes {
			cfg := bench.DefaultAutoBalanceConfig(mode)
			if r.scale == "large" {
				cfg.Records *= 8
				cfg.Clients *= 3
				cfg.Warmup *= 2
				cfg.Settle *= 2
				cfg.Tail *= 4
			}
			tr := r.trace(fmt.Sprintf("exp=autobalance mode=%v", mode))
			cfg.Recorder = rec(tr)
			res, err := bench.RunAutoBalance(cfg)
			if err != nil {
				return err
			}
			if r.series {
				fmt.Printf("\n--- %v: skewed YCSB throughput around the rebalance window ---\n", mode)
				fmt.Print(res.Metrics.RenderSeries("ycsb"))
			}
			fmt.Printf("%v: before=%.0f/s after=%.0f/s avgLat=%v moved=%d moves=%d osc=%d migAborts=%d dups=%d\n",
				mode, res.Before.Throughput, res.After.Throughput, res.After.AvgLatency.Round(time.Microsecond),
				res.MovedOffHot, res.Moves, res.Oscillations, res.MigrationAborts, res.DupKeys)
			switch mode {
			case bench.BalanceManual:
				manual = res
			case bench.BalancePlanner:
				auto = res
			}
			if err := r.finishTrace(tr, fmt.Sprintf("autobalance/%v", mode)); err != nil {
				return err
			}
		}
		if manual != nil && auto != nil && manual.After.Throughput > 0 {
			fmt.Printf("\nplanner vs hand-placed layout: %.0f%% of manual steady-state throughput (acceptance bar: 90%%)\n",
				100*auto.After.Throughput/manual.After.Throughput)
		}

	case "faults":
		cfg := bench.DefaultFaultsConfig()
		if r.scale == "large" {
			cfg.Records *= 8
			cfg.Clients *= 3
			cfg.Warmup *= 2
			cfg.Tail *= 2
		}
		cfg.DropRate = r.faultDrop
		cfg.PartitionDur = r.faultPartition
		cfg.Seed = r.faultSeed
		tr := r.trace("exp=faults")
		cfg.Recorder = rec(tr)
		res, err := bench.RunFaults(cfg)
		if err != nil {
			return err
		}
		fmt.Printf("drop rate %.1f%%, partition window %v (seed %d):\n\n",
			100*cfg.DropRate, cfg.PartitionDur, cfg.Seed)
		fmt.Print(bench.FormatFaults(res))
		if err := r.finishTrace(tr, "faults"); err != nil {
			return err
		}

	case "table3":
		rows, err := bench.RunTable3(bench.DefaultTable3Config())
		if err != nil {
			return err
		}
		fmt.Println("Table 3 — average latency increase during migration:")
		fmt.Print(bench.FormatTable3(rows))

	case "ablation":
		schemes, err := bench.RunSchemeAblation(2400, 12, 500*time.Millisecond,
			simnet.Config{Latency: 50 * time.Microsecond})
		if err != nil {
			return err
		}
		fmt.Println("Timestamp scheme ablation (§2.2/§4.1):")
		for _, r := range schemes {
			fmt.Printf("  %-4s %10.0f txn/s  avg %v\n", r.Scheme, r.Throughput, r.AvgLatency.Round(time.Microsecond))
		}
		applies, err := bench.RunApplyAblation([]int{1, 4, 18}, 8, 300*time.Millisecond)
		if err != nil {
			return err
		}
		fmt.Println("Parallel apply ablation (§3.6):")
		for _, r := range applies {
			fmt.Printf("  workers=%-3d catch-up %v  mode-change %v  total %v (%d txns shipped)\n",
				r.Workers, r.CatchupDuration.Round(time.Microsecond),
				r.ModeChangeDuration.Round(time.Microsecond),
				r.TotalDuration.Round(time.Millisecond), r.ShippedTxns)
		}

	default:
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
