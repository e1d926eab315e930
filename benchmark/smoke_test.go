package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

// TestSmoke runs every workload at toy size, untraced and traced, and checks
// that what is printed is what BENCHMARK.json promises: the same workloads,
// and on the last line the same metric names and units.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	if len(file.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(file.Workloads), len(specs))
	}
	start := time.Now()
	for i, s := range specs {
		if file.Workloads[i].Name != s.name || file.Workloads[i].Why != s.why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, file.Workloads[i].Name, s.name)
		}
		for _, trace := range []bool{false, true} {
			want := file.EndToEnd
			if trace {
				want = file.PerLayer
			}
			cfg := runConfig{
				spec: s.toy(), seed: 7, trace: trace,
				dir:      filepath.Join(t.TempDir(), "run"),
				spanFile: filepath.Join(t.TempDir(), "spans.jsonl"),
				sliceLen: 100 * time.Millisecond, steadySlices: 3, migSlices: 3, refSlices: 3,
				setupRounds: 1, minBeyond: 0, sampleCap: 1 << 16, probeCalls: 2000,
				tail: 20 * time.Millisecond,
			}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", s.name, trace, err)
			}
			if !res.correct() {
				t.Errorf("%s trace=%v: checks failed: %v\n%v", s.name, trace, res.problems, strings.Join(res.notes, "\n"))
			}
			var out bytes.Buffer
			report(&out, cfg, res)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var last struct {
				Correct   bool
				Attempted uint64
				Failed    uint64
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result object: %v", s.name, trace, err)
			}
			if !last.Correct || last.Attempted == 0 || last.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", s.name, trace, last.Correct, last.Attempted, last.Failed)
			}
			if len(last.Metrics) != len(want) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json lists %d", s.name, trace, len(last.Metrics), len(want))
			}
			for _, w := range want {
				got, ok := last.Metrics[w.Name]
				if !ok || got.Unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s [%s] missing or in unit %q", s.name, trace, w.Name, w.Unit, got.Unit)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", s.name, w.Name, got.Value)
				}
			}
			if trace && s.durable != (last.Metrics["storage.fsync_us_p50"].Value > 0) {
				t.Errorf("%s: storage metrics must be non-zero exactly on durable workloads", s.name)
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second && !testing.Short() {
		t.Logf("smoke runs took %v, budget is 10 s", d)
	}
}
