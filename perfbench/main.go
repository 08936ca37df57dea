// Command perfbench is the repository's end-to-end benchmark. It runs
// one workload through the program's public APIs, checks every output,
// and prints one JSON line with the attempted and failed operation
// counts and the metrics:
//
//	perfbench --workload batch-tpch --seed 1 --seconds 25 --trace 0
//
// With --trace 0 it prints the end-to-end metrics of an untraced run.
// With --trace 1 it runs the middle half of the time traced and the rest
// untraced, prints the per-layer metrics of the traced half with the
// tracing overhead,
// and writes the spans to .bench_build/perfbench/spans-<workload>-<seed>.jsonl.
// See README.md for the workloads and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/metrics"
)

// setupRepeats is how many times each run sets up; setup_s is their
// median, so one slow set-up does not move it.
const setupRepeats = 5

// warmup is how long each workload runs, checked but untimed, before it
// is measured.
const warmup = 2 * time.Second

// bench is one workload.
type bench interface {
	// setup generates the catalogs, trains the policy and computes the
	// reference results. It is repeated; the last set-up is used.
	setup(seed int64) (setupTimes, error)
	// start builds and starts the serving stack over the last set-up.
	start() error
	// run measures whole rounds of operations for at least d (at least
	// one round).
	run(d time.Duration) *phase
	// registries are the engines' metrics registries.
	registries() []*metrics.Registry
	// engineThreads is the worker threads over all engines.
	engineThreads() int
	// stop shuts everything down and returns a failed whole-run check.
	stop() error
	counts() (attempted, failed int64)
}

// phase is what one timed stretch of a workload measured.
type phase struct {
	wall time.Duration
	// queries counts executions (successful or not); completed counts
	// the operations that did not fail, and lat has one end-to-end
	// latency (ms) for each.
	queries, completed int
	lat                []float64
	// Front-door views, where a front door runs (ms): Disposition.Wait,
	// the server's submit-to-completion latency, and the client round
	// trip minus that latency.
	wait, serverLat, ingress []float64
	// late is how far behind its schedule an open-loop generator
	// submitted each query (ms).
	late []float64
	// routed counts the queries the coordinator routed to each node.
	routed map[string]float64
	// Filled in by measure.
	p0, p1 procSample
	e0, e1 engineSample
	spans  []Span
}

func (ph *phase) qps() float64 { return float64(ph.completed) / ph.wall.Seconds() }

// newBench builds a workload; threads is nproc.
func newBench(name string, threads int, tr *Tracer) (bench, error) {
	switch name {
	case "batch-tpch":
		// One worker thread: at more, a varying few queries per run
		// return wrong row counts (README, F2).
		return &batchTPCH{threads: 1, tr: tr}, nil
	case "http-cluster-ssb":
		return &httpClusterSSB{threads: threads, conns: threads, tr: tr}, nil
	case "stream-mix":
		return &streamMix{threads: threads, tr: tr}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (batch-tpch, http-cluster-ssb, stream-mix)", name)
}

func measure(b bench, tr *Tracer, d time.Duration) *phase {
	e0 := sampleEngines(b.registries()...)
	p0 := sampleProc()
	ph := b.run(d)
	ph.p1 = sampleProc()
	ph.e1 = sampleEngines(b.registries()...)
	ph.p0, ph.e0 = p0, e0
	if tr.On() {
		ph.spans = tr.Spans()
	}
	return ph
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: batch-tpch, http-cluster-ssb or stream-mix")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 25, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: per-layer metrics from a traced run")
	flag.Parse()
	if err := runMain(*name, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func runMain(name string, seed int64, d time.Duration, trace bool) error {
	// Load hygiene: never more procs than the host has cores.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	threads := runtime.GOMAXPROCS(0)
	tr := NewTracer()
	// Each set-up starts from a fresh bench, and the previous one is
	// collected first, so the peak RSS holds one set-up, not several.
	var b bench
	setups := make([]setupTimes, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		b = nil
		runtime.GC()
		var err error
		if b, err = newBench(name, threads, tr); err != nil {
			return err
		}
		st, err := b.setup(seed)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st)
	}
	if err := b.start(); err != nil {
		b.stop() //nolint:errcheck // the start error is the one to report
		return fmt.Errorf("start: %w", err)
	}
	res := result{Correct: true, Metrics: map[string]metric{}}
	runErr := func() error {
		// Warm-up: fills pools, caches and estimators; its operations
		// are checked and counted but not timed.
		b.run(warmup)
		if !trace {
			endToEnd(measure(b, tr, d), setups, res.Metrics)
			return nil
		}
		// Untraced, traced, untraced (a quarter, a half, a quarter), so
		// a drift in speed over the run cancels out of the overhead.
		before := measure(b, tr, d/4)
		tr.SetOn(true)
		traced := measure(b, tr, d/2)
		tr.SetOn(false)
		after := measure(b, tr, d/4)
		plain := &phase{
			wall:      before.wall + after.wall,
			completed: before.completed + after.completed,
			lat:       append(before.lat, after.lat...),
		}
		out := perLayer(b, traced, plain, setups)
		for _, l := range perLayerMetrics {
			res.Metrics[l.name] = metric{Value: out[l.name], Unit: l.unit}
		}
		path := fmt.Sprintf(".bench_build/perfbench/spans-%s-%d.jsonl", name, seed)
		if err := writeSpans(path, traced.spans); err != nil {
			return fmt.Errorf("write spans: %w", err)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(traced.spans), path)
		return nil
	}()
	stopErr := b.stop()
	if runErr != nil {
		return runErr
	}
	if stopErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %v\n", stopErr)
		res.Correct = false
	}
	res.Attempted, res.Failed = b.counts()
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// endToEnd fills the end-to-end metrics of an untraced phase.
func endToEnd(ph *phase, setups []setupTimes, out map[string]metric) {
	totals := make([]float64, len(setups))
	for i, s := range setups {
		totals[i] = s.total()
	}
	out["setup_s"] = metric{median(totals), "s"}
	out["rss_peak_mb"] = metric{float64(ph.p1.maxRSSk) / 1024, "MB"}
	if ph.completed > 0 {
		out["cpu_ms_per_query"] = metric{ms(ph.p1.cpu-ph.p0.cpu) / float64(ph.completed), "ms"}
	}
	out["qps"] = metric{ph.qps(), "1/s"}
	out["latency_p50_ms"] = metric{median(ph.lat), "ms"}
	if v, ok := tailQuantile(ph.lat, 0.9); ok {
		out["latency_p90_ms"] = metric{v, "ms"}
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: %d latency samples are too few for a p90 with %d beyond it\n",
			len(ph.lat), minBeyondTail)
	}
	// The p99 is printed for reading, not as a metric: on stream-mix it
	// moves by a third between seeds, with the burst pattern of each.
	if v, ok := tailQuantile(ph.lat, 0.99); ok {
		fmt.Fprintf(os.Stderr, "perfbench: latency p99 %.3f ms over %d queries\n", v, len(ph.lat))
	}
	if len(ph.late) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: open-loop generator late p50 %.3f ms, max %.3f ms\n",
			median(ph.late), quantile(ph.late, 1))
	}
}

// perLayerMetrics are the metrics of the traced run, each printed on
// every workload: a layer that a workload does not run reports 0.
var perLayerMetrics = []struct{ name, unit string }{
	{"setup.catalog_s", "s"},
	{"setup.train_s", "s"},
	{"setup.reference_s", "s"},
	{"ingress.self_ms", "ms"},
	{"admission.wait_p50_ms", "ms"},
	{"admission.wait_p90_ms", "ms"},
	{"admission.decisions_per_query", "count"},
	{"admission.decide_us", "us"},
	{"admission.self_ms", "ms"},
	{"cluster.queue_ms", "ms"},
	{"cluster.routed.node-0", "count"},
	{"cluster.routed.node-1", "count"},
	{"rpc.submit_ms", "ms"},
	{"rpc.transport_ms", "ms"},
	{"engine.run_ms", "ms"},
	{"engine.self_ms", "ms"},
	{"lsched.decide_calls_per_query", "count"},
	{"lsched.decide_us", "us"},
	{"lsched.decide_share", "ratio"},
	{"engine.workorders_per_query", "count"},
	{"engine.wo_busy_s", "s"},
	{"engine.utilization", "ratio"},
	{"exec.wo_us.select", "us"},
	{"exec.wo_us.build", "us"},
	{"exec.wo_us.probe", "us"},
	{"exec.wo_us.aggregate", "us"},
	{"exec.wo_us.sort", "us"},
	{"go.alloc_kb_per_query", "KB"},
	{"go.gc_cycles", "count"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_max_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_qps_pct", "%"},
}

// perLayer computes the per-layer metrics of a traced phase; plain is
// the untraced phases around it, for the tracing overhead.
func perLayer(b bench, ph, plain *phase, setups []setupTimes) map[string]float64 {
	out := make(map[string]float64)
	var cat, train, ref []float64
	for _, s := range setups {
		cat, train, ref = append(cat, s.catalog), append(train, s.train), append(ref, s.reference)
	}
	out["setup.catalog_s"] = median(cat)
	out["setup.train_s"] = median(train)
	out["setup.reference_s"] = median(ref)

	layers := byLayer(ph.spans)
	queries := float64(ph.queries)
	perQuery := func(v float64) float64 {
		if queries == 0 {
			return 0
		}
		return v / queries
	}

	out["ingress.self_ms"] = mean(ph.ingress)
	out["admission.wait_p50_ms"] = median(ph.wait)
	out["admission.wait_p90_ms"] = quantile(ph.wait, 0.9)
	dec := layers["admission.decide"]
	out["admission.decisions_per_query"] = perQuery(float64(dec.n))
	out["admission.decide_us"] = dec.meanMS() * 1e3
	// The front door's backend is the coordinator where a cluster runs,
	// the engine otherwise.
	backend := layers["cluster.run"]
	if backend.n == 0 {
		backend = layers["engine.run"]
	}
	if len(ph.serverLat) > 0 {
		out["admission.self_ms"] = mean(ph.serverLat) - mean(ph.wait) - backend.meanMS()
	}

	run, submit, node := layers["cluster.run"], layers["rpc.submit"], layers["node.run"]
	if run.n > 0 {
		out["cluster.queue_ms"] = run.meanMS() - submit.meanMS()
		out["rpc.submit_ms"] = submit.meanMS()
		out["rpc.transport_ms"] = submit.meanMS() - node.meanMS()
	}

	decide := layers["lsched.decide"]
	decideMS := float64(decide.total) / 1e6
	// Engine wall time: one span per EngineBackend.Run on the serving
	// workloads, one per Live.Run of a whole batch on batch-tpch.
	eng := layers["engine.run"]
	if eng.n == 0 {
		eng = layers["engine.batch"]
	}
	engMS := float64(eng.total) / 1e6
	out["engine.run_ms"] = perQuery(engMS)
	// Decisions inside a batch are children of its span, so its self
	// time already excludes them; a serving engine's decisions have no
	// known parent and are subtracted in aggregate.
	out["engine.self_ms"] = perQuery(float64(eng.own-decide.orphan) / 1e6)
	out["lsched.decide_calls_per_query"] = perQuery(float64(decide.n))
	out["lsched.decide_us"] = decide.meanMS() * 1e3
	if engMS > 0 {
		out["lsched.decide_share"] = decideMS / engMS
	}

	e := ph.e1.minus(ph.e0)
	out["engine.workorders_per_query"] = perQuery(float64(e.workorders))
	out["engine.wo_busy_s"] = e.busy
	out["engine.utilization"] = e.busy / (float64(b.engineThreads()) * ph.wall.Seconds())
	for k, name := range kernelNames {
		if e.kernelN[k] > 0 {
			out["exec.wo_us."+name] = e.kernelSec[k] / float64(e.kernelN[k]) * 1e6
		}
	}
	out["go.alloc_kb_per_query"] = perQuery(float64(ph.p1.alloc-ph.p0.alloc) / 1024)
	out["go.gc_cycles"] = float64(ph.p1.gc - ph.p0.gc)
	if len(ph.late) > 0 {
		out["loadgen.late_p50_ms"] = median(ph.late)
		out["loadgen.late_max_ms"] = quantile(ph.late, 1)
	}

	out["trace.spans"] = float64(len(ph.spans))
	if p := median(plain.lat); p > 0 {
		out["trace.overhead_p50_pct"] = (median(ph.lat) - p) / p * 100
	}
	if q := plain.qps(); q > 0 {
		out["trace.overhead_qps_pct"] = (q - ph.qps()) / q * 100
	}
	for id, n := range ph.routed {
		out["cluster.routed."+id] = n
	}
	return out
}
