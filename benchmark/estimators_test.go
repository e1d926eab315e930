package main

import (
	"errors"
	"testing"
)

func TestBucketByCompletionTime(t *testing.T) {
	w := window{start: 1000, sliceLen: 100, n: 3}
	clients := [][]sample{
		{{end: 999, lat: 1}, {end: 1000, lat: 2}, {end: 1099, lat: 3}, {end: 1100, lat: 4, write: true}},
		{{end: 1299, lat: 5}, {end: 1300, lat: 6}, {end: 1250, lat: 7, write: true}},
	}
	got := w.bucket(clients, nil)
	want := [][]uint32{{2, 3}, {4}, {5, 7}}
	for i := range want {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("slice %d: got %v, want %v", i, got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("slice %d: got %v, want %v", i, got[i], want[i])
			}
		}
	}
	// A sample started in one slice and completed in the next belongs to the
	// next; the filter sees the sample, not only its latency.
	writes := w.bucket(clients, func(s sample) bool { return s.write })
	if len(writes[0]) != 0 || len(writes[1]) != 1 || len(writes[2]) != 1 {
		t.Fatalf("write filter: got %v", writes)
	}
	if w.sliceOf(w.end()) != -1 || w.sliceOf(w.end()-1) != 2 {
		t.Fatal("window end must be exclusive")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{{nil, 0}, {[]float64{3}, 3}, {[]float64{4, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5}} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestMedianOfSlicesIgnoresAStalledSlice(t *testing.T) {
	count := func(s []uint32) (float64, error) { return float64(len(s)), nil }
	healthy := make([]uint32, 100)
	slicesLat := [][]uint32{healthy, healthy, healthy[:40], healthy, nil}
	got, per, starved := medianOfSlices(slicesLat, count, -1)
	if starved != 0 || len(per) != 5 || per[4] != 0 || got != 100 {
		t.Fatalf("got %v over %v, %d starved; want 100 over 5 slices, the empty one counting as 0", got, per, starved)
	}
}

func TestMedianOfSlicesCountsStarvedSlicesAsWorst(t *testing.T) {
	p99 := func(s []uint32) (float64, error) { return percentile(s, 0.99, 10) }
	full := make([]uint32, 1000)
	for i := range full {
		full[i] = uint32(i + 1)
	}
	const worst = 1e6
	got, per, starved := medianOfSlices([][]uint32{full, nil, full}, p99, worst)
	if starved != 1 || len(per) != 3 || per[1] != worst || got != 990 {
		t.Fatalf("got %v over %v, %d starved; want 990 with the starved slice at %v", got, per, starved, worst)
	}
	// Starving more slices must make the metric worse, never better.
	if got, _, _ := medianOfSlices([][]uint32{full, full[:999], nil}, p99, worst); got != worst {
		t.Fatalf("two of three slices starved: got %v, want %v", got, worst)
	}
}

func TestPercentileNeedsSamplesBeyond(t *testing.T) {
	sorted := make([]uint32, 1000)
	for i := range sorted {
		sorted[i] = uint32(i + 1)
	}
	if v, err := percentile(sorted, 0.99, 10); err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with exactly 10 beyond", v, err)
	}
	if _, err := percentile(sorted[:999], 0.99, 10); !errors.Is(err, errTooFew) {
		t.Fatalf("p99 of 999 samples has 9 beyond it, want errTooFew, got %v", err)
	}
	if v, err := percentile(sorted[:20], 0.50, 10); err != nil || v != 10 {
		t.Fatalf("p50 of 1..20 = %v, %v; want 10", v, err)
	}
	if _, err := percentile(nil, 0.5, 0); !errors.Is(err, errTooFew) {
		t.Fatalf("percentile of nothing: %v", err)
	}
	if v, err := percentile([]uint32{7}, 0.99, 0); err != nil || v != 7 {
		t.Fatalf("toy rule: %v, %v", v, err)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"sequential", []interval{{110, 120}, {130, 150}}, 70},
		{"overlapping count once", []interval{{110, 140}, {130, 150}}, 60},
		{"clipped to the parent", []interval{{50, 110}, {190, 300}}, 80},
		{"outside", []interval{{0, 50}, {250, 300}}, 100},
		{"nested", []interval{{110, 190}, {120, 130}}, 20},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestValuesAreSelfDescribing(t *testing.T) {
	rng := newRand(1, 0)
	v := makeValue(rng, 42, 7, 100)
	if seq, err := parseValue(v, 42); err != nil || seq != 7 {
		t.Fatalf("round trip: seq %d err %v", seq, err)
	}
	if _, err := parseValue(v, 43); err == nil {
		t.Fatal("a value must not pass for another row")
	}
	v[50] ^= 1
	if _, err := parseValue(v, 42); err == nil {
		t.Fatal("a flipped bit must fail the checksum")
	}
	l := newLedger(100, 100)
	l.acked[42] = 7
	if l.check(42, 7) != nil || l.check(42, 6) == nil || l.check(42, 8) == nil {
		t.Fatal("ledger must accept exactly the acknowledged sequence")
	}
	l.unsure[42] = true
	if l.check(42, 8) != nil {
		t.Fatal("after a failed commit the next sequence is legal too")
	}
}
