package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/frontdoor"
	"repro/internal/plan"
	"repro/internal/workload"
)

func samples(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	return xs
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{99, 0.9, false},
		{100, 0.9, true},
		{19, 0.5, false},
		{20, 0.5, true},
	} {
		if _, ok := tailQuantile(samples(c.n), c.q); ok != c.ok {
			t.Errorf("p%g of %d samples: reported %v, want %v", c.q*100, c.n, ok, c.ok)
		}
	}
	if v, _ := tailQuantile(samples(1001), 0.99); v != 990 {
		t.Errorf("p99 of 0..1000 = %v, want 990", v)
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []Span{
		{Name: "root", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},  // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0}, // runs past the parent: clipped
		{Name: "d", Start: 25, End: 28, Parent: 2},  // grandchild: only b's business
		{Name: "e", Start: 60, End: 70, Parent: -1}, // unrelated root
	}
	got := selfTimes(spans)
	want := []int64{100 - 40 - 10, 20, 30 - 3, 30, 3, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	l := byLayer(spans)["root"]
	if l.n != 1 || l.total != 100 || l.own != 50 || l.orphan != 100 {
		t.Errorf("root layer = %+v, want 1 span, 100 total, 50 own, 100 without parent", l)
	}
	if l := byLayer(spans)["d"]; l.orphan != 0 {
		t.Errorf("d has a parent, yet counts %d without one", l.orphan)
	}
}

func TestLedgerCatchesLostAndDuplicatedDispositions(t *testing.T) {
	l := newLedger()
	a, b, c := l.submit(), l.submit(), l.submit()
	l.resolve(a)
	l.resolve(b)
	l.resolve(c)
	if err := l.check(); err != nil {
		t.Fatalf("each query resolved once: %v", err)
	}
	l.resolve(b)
	if err := l.check(); err == nil || !strings.Contains(err.Error(), "1 resolved more than once") {
		t.Errorf("duplicate not caught: %v", err)
	}
	l = newLedger()
	l.resolve(l.submit())
	l.submit()
	if err := l.check(); err == nil || !strings.Contains(err.Error(), "1 of 2 queries never resolved") {
		t.Errorf("lost disposition not caught: %v", err)
	}
}

// TestStreamReportsAQueryThatNeverResolves runs the stream against a
// backend that holds its query past the disposition timeout: the query
// counts as failed and the whole-run check names it as never resolved.
func TestStreamReportsAQueryThatNeverResolves(t *testing.T) {
	defer func(d time.Duration) { resolveTimeout = d }(resolveTimeout)
	resolveTimeout = 50 * time.Millisecond
	release := make(chan struct{})
	fd, err := frontdoor.New(frontdoor.Options{
		Backend: frontdoor.BackendFunc(func(*frontdoor.Query) (*frontdoor.Result, error) {
			<-release
			return &frontdoor.Result{}, nil
		}),
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := workload.SSB(1)[0]
	s := &streamMix{
		plans: []*plan.Plan{p},
		ops:   [][]costmodel.OpWork{opsOf(p)},
		rng:   rand.New(rand.NewSource(1)),
		fd:    fd,
		led:   newLedger(),
	}
	ph := s.run(time.Millisecond)
	close(release)
	if ph.completed != 0 || s.failed.Load() != 1 {
		t.Errorf("completed %d, failed %d; want 0 and 1", ph.completed, s.failed.Load())
	}
	if err := s.stop(); err == nil || !strings.Contains(err.Error(), "1 of 1 queries never resolved") {
		t.Errorf("unresolved query not reported: %v", err)
	}
}

func TestConservationCheck(t *testing.T) {
	ok := frontdoor.Stats{Submitted: 10, Admitted: 7, Shed: 2, Rejected: 1}
	if err := checkConservation(10, ok); err != nil {
		t.Errorf("balanced stats: %v", err)
	}
	if err := checkConservation(11, ok); err == nil {
		t.Error("a request the front door never saw was not caught")
	}
	lost := frontdoor.Stats{Submitted: 10, Admitted: 7, Shed: 2}
	if err := checkConservation(10, lost); err == nil {
		t.Error("a query with no terminal outcome was not caught")
	}
}

func TestPlanCheckCatchesSwappedPlan(t *testing.T) {
	plans := workload.SSB(1)
	asked, ran := plans[0], plans[len(plans)-1]
	if !planMatches(asked, opsOf(asked)) {
		t.Fatal("a plan does not match its own summary")
	}
	if planMatches(ran, opsOf(asked)) {
		t.Fatalf("%s matches the summary of %s", ran.QueryName, asked.QueryName)
	}
	check := &planCheck{inner: frontdoor.BackendFunc(func(*frontdoor.Query) (*frontdoor.Result, error) {
		return &frontdoor.Result{}, nil
	})}
	for _, p := range []any{asked, ran, nil} {
		if _, err := check.Run(&frontdoor.Query{Ops: opsOf(asked), Payload: p}); err != nil {
			t.Fatal(err)
		}
	}
	if n := check.wrong.Load(); n != 2 {
		t.Errorf("wrong plans counted = %d, want 2 (a swapped plan and a missing one)", n)
	}
}

func TestRowCheckCatchesWrongCount(t *testing.T) {
	plans := workload.TPCH(1)[:3]
	ref := map[string]int{plans[0].QueryName: 5, plans[1].QueryName: 0, plans[2].QueryName: 7}
	if bad := rowMismatches(map[int]int{0: 5, 2: 7}, plans, ref); len(bad) != 0 {
		t.Errorf("matching counts flagged: %v", bad)
	}
	bad := rowMismatches(map[int]int{0: 5, 1: 3}, plans, ref)
	if len(bad) != 2 || bad[0] != 1 || bad[1] != 2 {
		t.Errorf("mismatches = %v, want [1 2] (extra rows, missing rows)", bad)
	}
}

// TestBenchmarkJSONListsTheMetrics keeps BENCHMARK.json and the program
// in step: the per-layer metrics it declares are the ones a traced run
// prints, with the same units.
func TestBenchmarkJSONListsTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.PerLayer) != len(perLayerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the program prints %d", len(spec.PerLayer), len(perLayerMetrics))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerMetrics[i].name || m.Unit != perLayerMetrics[i].unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %s (%s), the program %s (%s)",
				i, m.Name, m.Unit, perLayerMetrics[i].name, perLayerMetrics[i].unit)
		}
	}
	ph := &phase{completed: 2000, lat: samples(2000), wall: 1e9}
	out := map[string]metric{}
	endToEnd(ph, []setupTimes{{1, 1, 1}}, out)
	for _, m := range spec.EndToEnd {
		if got, ok := out[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): the program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(out) != len(spec.EndToEnd) {
		t.Errorf("the program prints %d end-to-end metrics, BENCHMARK.json lists %d", len(out), len(spec.EndToEnd))
	}
	for _, w := range spec.Workloads {
		if _, err := newBench(w.Name, 1, nil); err != nil {
			t.Error(err)
		}
	}
}
