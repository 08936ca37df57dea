package main

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/heuristics"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// batchTPCH is the paper's batch scenario: batches of 40 TPC-H (sf 1)
// plans, drawn with replacement, all arriving at t=0 on one live engine
// under the greedy LSched agent. No HTTP, admission or cluster code
// runs, so decision cost and inter-query scheduling dominate.
type batchTPCH struct {
	seed    int64
	threads int
	tr      *Tracer

	plans []*plan.Plan
	cat   *storage.Catalog
	agent *lsched.Agent
	ref   map[string]int // output rows per plan, alone on one thread under FIFO

	rng   *rand.Rand
	reg   *metrics.Registry
	live  *engine.Live
	sched *tracedScheduler
	// cur is the span of the batch in flight; doneAt stamps each
	// query's completion. Both are touched only by the goroutine that
	// runs the batch (the engine's event loop calls the scheduler
	// there).
	cur    int
	doneAt []time.Time

	attempted, failed int64
}

const (
	batchSize       = 40
	batchRowsPerBlk = 16384
	batchMaxBlocks  = 16
)

func (b *batchTPCH) setup(seed int64) (setupTimes, error) {
	var st setupTimes
	b.seed = seed
	b.plans = workload.TPCH(1)
	if err := timed(&st.catalog, func() (err error) {
		b.cat, err = workload.SyntheticCatalog(b.plans, batchRowsPerBlk, batchMaxBlocks, dataSeed)
		return err
	}); err != nil {
		return st, err
	}
	if err := timed(&st.train, func() (err error) {
		b.agent, err = trainAgent(b.plans, b.threads)
		return err
	}); err != nil {
		return st, err
	}
	err := timed(&st.reference, func() error {
		b.ref = make(map[string]int, len(b.plans))
		alone := engine.NewLive(b.cat, engine.LiveConfig{Threads: 1})
		for _, p := range b.plans {
			res, err := alone.RunOne(heuristics.FIFO{}, p)
			if err != nil {
				return fmt.Errorf("reference run of %s: %w", p.QueryName, err)
			}
			b.ref[p.QueryName] = res.OutputRows[0]
		}
		return nil
	})
	return st, err
}

func (b *batchTPCH) start() error {
	b.rng = rand.New(rand.NewSource(b.seed))
	b.reg = metrics.NewRegistry()
	b.live = engine.NewLive(b.cat, engine.LiveConfig{Threads: b.threads, Metrics: b.reg})
	b.cur = -1
	b.sched = &tracedScheduler{
		inner:  b.agent,
		tr:     b.tr,
		parent: func() int { return b.cur },
		done:   func(id int, at time.Time) { b.doneAt[id] = at },
	}
	return b.live.Validate(b.plans)
}

// run executes whole batches until d has passed (at least one).
func (b *batchTPCH) run(d time.Duration) *phase {
	ph := &phase{}
	start := time.Now()
	for first := true; first || time.Since(start) < d; first = false {
		b.runBatch(ph)
	}
	ph.wall = time.Since(start)
	return ph
}

func (b *batchTPCH) runBatch(ph *phase) {
	arr := workload.Batch(b.plans, batchSize, b.rng)
	plans := make([]*plan.Plan, len(arr))
	for i, a := range arr {
		plans[i] = a.Plan
	}
	b.doneAt = make([]time.Time, len(arr))
	b.attempted += int64(len(arr))
	start := time.Now()
	b.cur = b.tr.Begin("engine.batch", -1, nil)
	res, err := b.live.Run(b.sched, arr)
	b.tr.End(b.cur)
	b.cur = -1
	if err != nil {
		fmt.Fprintf(os.Stderr, "batch-tpch: batch failed: %v\n", err)
		b.failed += int64(len(arr))
		return
	}
	bad := make(map[int]bool)
	for _, i := range rowMismatches(res.OutputRows, plans, b.ref) {
		bad[i] = true
		fmt.Fprintf(os.Stderr, "batch-tpch: %s returned %d rows, alone it returns %d\n",
			plans[i].QueryName, res.OutputRows[i], b.ref[plans[i].QueryName])
	}
	b.failed += int64(len(bad))
	ph.queries += len(arr)
	for i, at := range b.doneAt {
		if bad[i] || at.IsZero() {
			continue
		}
		ph.completed++
		ph.lat = append(ph.lat, ms(at.Sub(start)))
	}
}

func (b *batchTPCH) registries() []*metrics.Registry { return []*metrics.Registry{b.reg} }

func (b *batchTPCH) engineThreads() int { return b.threads }

func (b *batchTPCH) stop() error { return nil }

func (b *batchTPCH) counts() (attempted, failed int64) { return b.attempted, b.failed }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
