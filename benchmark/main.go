// Command benchmark is the repository's one benchmark: it builds a real
// multi-node cluster, loads it, drives it with closed-loop clients through a
// steady window and a window of back-to-back live migrations, checks every
// output, and prints the metrics BENCHMARK.json names. README.md explains the
// workloads and the estimators.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "point_mem | multi_lan | write_durable | scan_batch_mem")
		seed     = flag.Uint64("seed", 1, "seed of every generated key and value")
		seconds  = flag.Int("seconds", 28, "seconds measured: 5/14 of them steady, the rest migrating")
		trace    = flag.Int("trace", 0, "1: traced run printing the per-layer metrics instead of the end-to-end ones")
		dir      = flag.String("dir", filepath.Join(".bench_build", "run"), "scratch directory for durable data and the span file")
	)
	flag.Parse()
	spec, err := findSpec(*workload)
	if err != nil || *seconds < 5 || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchmark -workload <name> [-seed n] [-seconds n] [-trace 0|1] [-dir path]")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(2)
	}
	cfg := runConfig{
		spec: spec, seed: *seed, trace: *trace != 0,
		dir:         filepath.Join(*dir, fmt.Sprintf("%s-%d", spec.name, os.Getpid())),
		spanFile:    filepath.Join(*dir, "trace-"+spec.name+".jsonl"),
		sliceLen:    time.Second,
		setupRounds: 3,
		minBeyond:   10,
		sampleCap:   *seconds * 150_000,
		probeCalls:  200_000,
		tail:        200 * time.Millisecond,
	}
	if cfg.trace {
		// A fifth each for the untraced reference, the traced steady and the
		// traced migrating window; the rest is for the layer probes.
		cfg.refSlices, cfg.steadySlices, cfg.migSlices = *seconds/5, *seconds/5, *seconds/5
	} else {
		// The migrating window is the noisier one (NOISE.md), so it gets the
		// larger share: 10 + 18 slices of the 28 s the driver asks for.
		cfg.steadySlices = *seconds * 5 / 14
		cfg.migSlices = *seconds - cfg.steadySlices
	}
	res, err := run(cfg)
	os.RemoveAll(cfg.dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	report(os.Stdout, cfg, res)
	if !res.correct() {
		os.Exit(1)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints the human-readable block and then, as the last line, the one
// JSON object the driver reads.
func report(out io.Writer, cfg runConfig, res *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Fprintf(out, "workload %s seed %d trace %v: %s\n", cfg.spec.name, cfg.seed, cfg.trace, cfg.spec.why)
	fmt.Fprintf(out, "nproc %d GOMAXPROCS %d clients %d (closed loop) rows %d x %d B\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), numClients, cfg.spec.rows, cfg.spec.valueLen)
	if cfg.spec.durable {
		fmt.Fprintln(out, "flush policy: the code's own — write-through WAL append, one fsync per commit, no group commit")
	}
	for _, n := range res.notes {
		fmt.Fprintln(out, n)
	}
	jm := make(map[string]jsonMetric, len(defs))
	for _, d := range defs {
		v := res.metrics[d.name]
		jm[d.name] = jsonMetric{Value: v, Unit: d.unit}
		fmt.Fprintf(out, "%-36s %16.4f %s\n", d.name, v, d.unit)
	}
	fmt.Fprintf(out, "attempted %d failed %d %v\n", res.attempted, res.failed, res.failures)
	for _, p := range res.problems {
		fmt.Fprintln(out, "CHECK FAILED:", p)
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted uint64                `json:"attempted"`
		Failed    uint64                `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{res.correct(), res.attempted, res.failed, jm})
	if err != nil {
		panic(err) // only floats, strings and integers: cannot fail
	}
	fmt.Fprintln(out, string(line))
}
