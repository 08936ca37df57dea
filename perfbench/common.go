package main

import (
	"math/rand"
	"runtime"
	"syscall"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/workload"
)

// Training is part of set-up: a fixed, seeded number of REINFORCE
// episodes on the simulator, so set-up is seconds of deterministic work.
// The policy seed is fixed; --seed changes only the inputs.
// The tables are generated from a fixed seed too: --seed draws the
// query streams, so runs with different seeds execute the same data.
const (
	dataSeed      = 1
	trainSeed     = 1
	trainEpisodes = 10
	trainQueries  = 6
)

// setupTimes is one set-up's phases, in seconds.
type setupTimes struct {
	catalog, train, reference float64
}

func (s setupTimes) total() float64 { return s.catalog + s.train + s.reference }

// timed runs f and adds its wall time in seconds to *into.
func timed(into *float64, f func() error) error {
	start := time.Now()
	err := f()
	*into += time.Since(start).Seconds()
	return err
}

// trainAgent trains a greedy LSched agent on the simulator over plans,
// alternating streaming and batch episodes.
func trainAgent(plans []*plan.Plan, threads int) (*lsched.Agent, error) {
	agent := lsched.New(lsched.DefaultOptions(trainSeed))
	cfg := lsched.DefaultTrainConfig(trainSeed)
	cfg.Episodes = trainEpisodes
	cfg.Rollouts = 1
	cfg.SimCfg = engine.SimConfig{Threads: threads, NoiseFrac: 0.15}
	cfg.Workload = func(ep int, rng *rand.Rand) []engine.Arrival {
		if ep%2 == 1 {
			return workload.Batch(plans, trainQueries, rng)
		}
		return workload.Streaming(plans, trainQueries, 1, rng)
	}
	if _, err := lsched.Train(agent, cfg); err != nil {
		return nil, err
	}
	agent.SetGreedy(true)
	return agent, nil
}

// opsOf is the plan summary a client sends, as the front door's Query
// carries it.
func opsOf(p *plan.Plan) []costmodel.OpWork {
	sum := frontdoor.SummarizePlan(p)
	ops := make([]costmodel.OpWork, len(sum))
	for i, s := range sum {
		ops[i] = costmodel.OpWork{Key: s.Type, Units: s.Blocks}
	}
	return ops
}

// procSample is the process's resource use at one instant.
type procSample struct {
	cpu     time.Duration // user + system
	alloc   uint64        // bytes allocated, cumulative
	gc      uint32
	maxRSSk int64 // peak resident set, KiB
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:   ms.TotalAlloc,
		gc:      ms.NumGC,
		maxRSSk: ru.Maxrss,
	}
}

// engineSample is what the engines' metrics registries have counted:
// executed work orders, and per kernel the work-order count and summed
// wall seconds.
type engineSample struct {
	workorders int64
	busy       float64
	kernelN    [numKernels]int64
	kernelSec  [numKernels]float64
}

const numKernels = 5

var kernelNames = [numKernels]string{"select", "build", "probe", "aggregate", "sort"}

// kernelOf groups operator types by the exec kernel that runs them, as
// the live engine's per-kernel counters do; -1 for operators that pass
// blocks through or finalize.
func kernelOf(t plan.OpType) int {
	switch t {
	case plan.Select:
		return 0
	case plan.BuildHash:
		return 1
	case plan.ProbeHash, plan.IndexNestedLoopJoin, plan.MergeJoin, plan.NestedLoopJoin:
		return 2
	case plan.Aggregate, plan.Distinct, plan.Window:
		return 3
	case plan.Sort, plan.TopK:
		return 4
	}
	return -1
}

func sampleEngines(regs ...*metrics.Registry) engineSample {
	var s engineSample
	for _, reg := range regs {
		snap := reg.Snapshot()
		s.workorders += snap.Counters["live_workorders_executed"]
		for t := 0; t < plan.NumOpTypes; t++ {
			h := snap.Histograms["live_wo_wall_seconds_"+plan.OpType(t).String()]
			s.busy += h.Sum
			if k := kernelOf(plan.OpType(t)); k >= 0 {
				s.kernelN[k] += h.Count
				s.kernelSec[k] += h.Sum
			}
		}
	}
	return s
}

func (s engineSample) minus(o engineSample) engineSample {
	d := engineSample{workorders: s.workorders - o.workorders, busy: s.busy - o.busy}
	for k := range s.kernelN {
		d.kernelN[k] = s.kernelN[k] - o.kernelN[k]
		d.kernelSec[k] = s.kernelSec[k] - o.kernelSec[k]
	}
	return d
}
