// Command benchgate compares freshly measured oracle-failover samples
// (remus-bench -oracle-failover) against the committed BENCH_failover.json
// baseline and fails (exit 1) when any gated metric regressed past its
// tolerance.
//
//	benchgate -baseline BENCH_failover.json -current /tmp/f1.json,/tmp/f2.json,/tmp/f3.json
//
// The unavailability and stall windows are wall-clock milliseconds dominated
// by the configured detection budget (heartbeat × misses), not by machine
// speed, so they gate on absolute tolerances sized to scheduler noise; the
// failover count is exact.
//
// -current takes one or more comma-separated sample files (benchstat-style:
// the CI job measures several times). Each metric is gated on its best sample
// — noise on a shared runner only ever makes a sample worse, so a point that
// never reaches within tolerance of baseline across all samples is a real
// regression, while one good sample clears a noisy run.
//
// The verdict table is printed to stdout and, when $GITHUB_STEP_SUMMARY is
// set, appended there as markdown so a red gate explains itself in the job
// summary.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

// metric is one gated JSON field: higherBetter sets the regression direction
// and absTol the absolute slack allowed past the baseline.
type metric struct {
	name         string
	higherBetter bool
	absTol       float64
}

var metrics = []metric{
	{name: "unavail_ms", absTol: 100},
	{name: "stall_ms", absTol: 150},
	{name: "failovers", higherBetter: true, absTol: 0.25},
}

func field(run map[string]any, key string) (float64, bool) {
	v, ok := run[key].(float64)
	return v, ok
}

// pointKey identifies a sweep point, so baseline and current rows are
// matched even if the sweep grows.
func pointKey(run map[string]any) string {
	hb, _ := field(run, "heartbeat_ms")
	m, _ := field(run, "misses")
	l, _ := field(run, "lease")
	return fmt.Sprintf("hb=%.1fms/misses=%.0f/lease=%.0f", hb, m, l)
}

func loadRuns(path string) ([]map[string]any, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var runs []map[string]any
	if err := json.Unmarshal(data, &runs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return runs, nil
}

type row struct {
	point, metric     string
	baseline, current float64
	deltaPct          float64
	regressed         bool
}

// compare gates each baseline point against the best of the current samples
// for every metric. A point or metric missing from the current samples is a
// regression.
func compare(baseline []map[string]any, samples [][]map[string]any) []row {
	curByPoint := make(map[string][]map[string]any)
	for _, sample := range samples {
		for _, run := range sample {
			key := pointKey(run)
			curByPoint[key] = append(curByPoint[key], run)
		}
	}
	var rows []row
	for _, base := range baseline {
		point := pointKey(base)
		curs := curByPoint[point]
		if len(curs) == 0 {
			rows = append(rows, row{point: point, metric: "(point missing from current run)", regressed: true})
			continue
		}
		for _, m := range metrics {
			bv, okBase := field(base, m.name)
			cv, okCur := 0.0, false
			for _, cur := range curs {
				v, ok := field(cur, m.name)
				if !ok {
					continue
				}
				if !okCur || (m.higherBetter && v > cv) || (!m.higherBetter && v < cv) {
					cv, okCur = v, true
				}
			}
			r := row{point: point, metric: m.name, baseline: bv, current: cv}
			switch {
			case !okBase || !okCur:
				r.metric += " (missing)"
				r.regressed = true
			case m.higherBetter:
				r.regressed = cv < bv-m.absTol
			default:
				r.regressed = cv > bv+m.absTol
			}
			if bv != 0 && okBase && okCur {
				r.deltaPct = 100 * (cv - bv) / bv
			}
			rows = append(rows, r)
		}
	}
	return rows
}

func renderMarkdown(rows []row, samples int) (string, bool) {
	var b strings.Builder
	failed := false
	fmt.Fprintf(&b, "### bench gate: failover (absolute tolerances, best of %d samples)\n\n", samples)
	b.WriteString("| point | metric | baseline | current | delta | verdict |\n")
	b.WriteString("|---|---|---:|---:|---:|---|\n")
	for _, r := range rows {
		verdict := "ok"
		if r.regressed {
			verdict = "**REGRESSED**"
			failed = true
		}
		fmt.Fprintf(&b, "| %s | %s | %.3f | %.3f | %+.1f%% | %s |\n",
			r.point, r.metric, r.baseline, r.current, r.deltaPct, verdict)
	}
	if failed {
		b.WriteString("\nA metric moved past its tolerance. If the regression is intended " +
			"(protocol change, re-tuned sweep), regenerate the baseline with " +
			"`go run ./cmd/remus-bench -oracle-failover` and commit the new BENCH_failover.json.\n")
	}
	return b.String(), failed
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_failover.json", "committed baseline JSON")
	currentPaths := flag.String("current", "", "freshly measured JSON sample file(s), comma-separated")
	flag.Parse()

	baseline, err := loadRuns(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: baseline: %v\n", err)
		os.Exit(2)
	}
	var samples [][]map[string]any
	for _, path := range strings.Split(*currentPaths, ",") {
		if path = strings.TrimSpace(path); path == "" {
			continue
		}
		sample, err := loadRuns(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: current: %v\n", err)
			os.Exit(2)
		}
		samples = append(samples, sample)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no -current sample files")
		os.Exit(2)
	}

	rows := compare(baseline, samples)
	md, failed := renderMarkdown(rows, len(samples))
	fmt.Print(md)
	if summary := os.Getenv("GITHUB_STEP_SUMMARY"); summary != "" {
		f, err := os.OpenFile(summary, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err == nil {
			fmt.Fprintln(f, md)
			f.Close()
		}
	}
	if failed {
		os.Exit(1)
	}
}
