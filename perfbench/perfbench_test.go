package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"io"
	"math"
	"os"
	"slices"
	"testing"
	"time"
)

var workloads = []string{"analyze-cold", "serve-hot", "admit-churn", "exact-small"}

// testScale shrinks every plan and pool so a workload runs in about a
// second.
const testScale = 0.02

func inputHash(t *testing.T, name string, seed int64) [32]byte {
	t.Helper()
	w, err := newWorkload(name, testScale)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	if err := w.generate(seed, t.TempDir(), h); err != nil {
		t.Fatal(err)
	}
	return [32]byte(h.Sum(nil))
}

func TestInputHashFollowsSeed(t *testing.T) {
	for _, name := range workloads {
		a, b, c := inputHash(t, name, 1), inputHash(t, name, 1), inputHash(t, name, 2)
		if a != b {
			t.Errorf("%s: seed 1 generated different inputs twice", name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same inputs", name)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{50, 5}, {90, 9}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(s, tc.q); got != tc.want {
			t.Errorf("percentile(1..10, %v) = %d, want %d", tc.q, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %d, want 0", got)
	}
	if got := beyond(s, 9); got != 1 {
		t.Errorf("beyond(1..10, 9) = %d, want 1", got)
	}
	if got := beyond([]int64{1, 2, 2, 2, 3}, 2); got != 1 {
		t.Errorf("beyond with ties = %d, want 1", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{start: 0, end: 150, parent: -1, layer: lOp},
		{start: 10, end: 30, parent: 0, layer: lDecode},
		{start: 30, end: 50, parent: 0, layer: lFingerprint},
		{start: 60, end: 80, parent: 0, layer: lCall},
		{start: 90, end: 95, parent: 3, layer: lBound, beside: true},   // replayed stage of the call
		{start: 100, end: 110, parent: 3, layer: lBound, beside: true}, // another
	}
	got := selfTimes(spans)
	// op: 150 − 3×20; call: 20 − 5 − 10.
	want := []int64{90, 20, 20, 5, 5, 10}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}

	ops := perOp(spans)
	if len(ops) != 1 {
		t.Fatalf("perOp found %d ops, want 1", len(ops))
	}
	o := ops[0]
	if o.dur[lBound] != 15 || o.spans[lBound] != 2 || o.self[lCall] != 5 || o.region != 70 {
		t.Errorf("perOp: bounds %d ns in %d spans, call self %d, region %d; want 15, 2, 5, 70",
			o.dur[lBound], o.spans[lBound], o.self[lCall], o.region)
	}
	a := attribute(ops, 0.1)
	if math.Abs(a.sum*1e3-(20+20+15+5)) > 1e-9 {
		t.Errorf("attribution sums to %v us, want the decode, fingerprint, bounds and service.self medians", a.sum)
	}
}

func TestWindowed(t *testing.T) {
	p := phase{ops: 2500, elapsed: 3 * time.Second, cpu: 2 * time.Second}
	p.marks = []mark{{0, 0}, {time.Second, 500 * time.Millisecond}, {4 * time.Second, time.Second}}
	thr, cpu := p.windowed()
	// Two complete windows: 1000 ops in 1s and in 3s, each with 500ms of CPU.
	if thr != (1000+1000.0/3)/2 || cpu != 500 {
		t.Errorf("windowed = %v ops/s, %v us/op; want %v, 500", thr, cpu, (1000+1000.0/3)/2)
	}
	p.marks = p.marks[:1]
	if thr, _ := p.windowed(); thr != 2500.0/3 {
		t.Errorf("without a complete window, throughput = %v, want the phase's %v", thr, 2500.0/3)
	}
}

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against what the program prints.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json names workload %q, which the program does not implement", w.Name)
		}
	}
	for _, name := range workloads {
		for _, trace := range []bool{false, true} {
			o := options{workload: name, seed: 3, seconds: 0.4, trace: trace, dir: t.TempDir(), scale: testScale}
			res, err := bench(context.Background(), o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%t: correct %t, %d of %d ops failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
		}
	}
}
