package main

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/costmodel"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/workload"
)

// streamMix is queueing under bursts on one node: an open loop with
// Poisson arrivals at a fixed absolute rate submits a mix of SSB and
// TPC-H (sf 1) plans from 4 tenants in-process through FrontDoor.Submit,
// half of them latency-class with a loose deadline, to one
// EngineBackend over 16384-row blocks. Heavy and light queries share
// one engine and one agent; HTTP and cluster code are absent. Each
// query is timed from the moment it was due.
type streamMix struct {
	seed    int64
	threads int
	tr      *Tracer

	plans []*plan.Plan
	ops   [][]costmodel.OpWork
	cat   *storage.Catalog
	agent *lsched.Agent

	rng *rand.Rand
	reg *metrics.Registry
	fd  *frontdoor.FrontDoor
	led *ledger

	attempted, failed atomic.Int64
}

const (
	// streamRate is the offered load in queries per second: about half
	// the capacity of this configuration measured on a 2-core host, and
	// the same on every commit so that a faster program shows as lower
	// latency, not as a different load.
	streamRate = 90
	// streamDeadline is the latency class's budget: loose enough that
	// nothing is shed at streamRate.
	streamDeadline = 5 * time.Second
	// streamSlots is the front door's executor slots. With more than one,
	// concurrent EngineBackend runs share one agent and fail now and then
	// with a stalled scheduler (see README, F3).
	streamSlots      = 1
	streamTenants    = 4
	streamRowsPerBlk = 16384
	streamMaxBlocks  = 16
)

// resolveTimeout is how long the stream waits for a query's
// disposition. A query without one by then counts as failed and stays
// unresolved in the ledger, which the whole-run check reports.
var resolveTimeout = 4 * streamDeadline

func (s *streamMix) setup(seed int64) (setupTimes, error) {
	var st setupTimes
	s.seed = seed
	s.plans = append(workload.SSB(1), workload.TPCH(1)...)
	if err := timed(&st.catalog, func() (err error) {
		s.cat, err = workload.SyntheticCatalog(s.plans, streamRowsPerBlk, streamMaxBlocks, dataSeed)
		return err
	}); err != nil {
		return st, err
	}
	if err := timed(&st.train, func() (err error) {
		s.agent, err = trainAgent(s.plans, s.threads)
		return err
	}); err != nil {
		return st, err
	}
	// The reference is each plan's summary, which the front door prices
	// admissions by.
	err := timed(&st.reference, func() error {
		s.ops = make([][]costmodel.OpWork, len(s.plans))
		for i, p := range s.plans {
			s.ops[i] = opsOf(p)
		}
		return nil
	})
	return st, err
}

func (s *streamMix) start() error {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.reg = metrics.NewRegistry()
	s.led = newLedger()
	live := engine.NewLive(s.cat, engine.LiveConfig{Threads: s.threads, Metrics: s.reg})
	if err := live.Validate(s.plans); err != nil {
		return err
	}
	eng := frontdoor.NewEngineBackend(live, &tracedScheduler{inner: s.agent, tr: s.tr})
	var err error
	s.fd, err = frontdoor.New(frontdoor.Options{
		Backend:     &tracedBackend{name: "engine.run", inner: eng, tr: s.tr},
		Controller:  &tracedController{inner: frontdoor.NewLearned(s.agent.Admission()), tr: s.tr},
		MaxInFlight: streamSlots,
	})
	return err
}

// arrival is one scheduled query.
type arrival struct {
	due    time.Duration // offset from the phase start
	plan   int
	tenant string
	class  frontdoor.Class
}

// schedule draws the open loop's arrivals for at least d, in whole
// rounds: each round submits every plan once, in a seeded order, with a
// seeded tenant and class per query and exponential gaps at streamRate.
func (s *streamMix) schedule(d time.Duration) []arrival {
	var out []arrival
	at := time.Duration(0)
	for at < d {
		for _, p := range s.rng.Perm(len(s.plans)) {
			at += time.Duration(s.rng.ExpFloat64() / streamRate * float64(time.Second))
			out = append(out, arrival{
				due:    at,
				plan:   p,
				tenant: fmt.Sprintf("tenant-%d", s.rng.Intn(streamTenants)),
				class:  frontdoor.Class(s.rng.Intn(2)),
			})
		}
	}
	return out
}

// run submits one open-loop schedule of length d and waits for every
// disposition.
func (s *streamMix) run(d time.Duration) *phase {
	sched := s.schedule(d)
	ph := &phase{queries: len(sched)}
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		tickets = make([]*frontdoor.Ticket, len(sched))
		ids     = make([]int, len(sched))
		// got marks the tickets whose disposition arrived in time.
		got = make([]bool, len(sched))
	)
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		time.Sleep(time.Until(due))
		q := &frontdoor.Query{Tenant: a.tenant, Class: a.class, Ops: s.ops[a.plan], Payload: s.plans[a.plan]}
		if a.class == frontdoor.ClassLatency {
			q.Deadline = streamDeadline
		}
		late := ms(time.Since(due))
		ids[i] = s.led.submit()
		s.attempted.Add(1)
		t, err := s.fd.Submit(q)
		tickets[i] = t
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			timeout := time.NewTimer(resolveTimeout)
			defer timeout.Stop()
			var disp frontdoor.Disposition
			select {
			case disp = <-t.Done():
			case <-timeout.C:
				s.failed.Add(1)
				fmt.Fprintf(os.Stderr, "stream-mix: no disposition within %v\n", resolveTimeout)
				return
			}
			at := time.Now()
			got[i] = true
			s.led.resolve(id)
			if err := dispositionError(err, disp); err != nil {
				s.failed.Add(1)
				fmt.Fprintf(os.Stderr, "stream-mix: %v\n", err)
				return
			}
			mu.Lock()
			ph.completed++
			ph.lat = append(ph.lat, ms(at.Sub(due)))
			ph.wait = append(ph.wait, ms(disp.Wait))
			ph.serverLat = append(ph.serverLat, ms(disp.Latency))
			ph.late = append(ph.late, late)
			mu.Unlock()
		}(i, ids[i])
	}
	wg.Wait()
	ph.wall = time.Since(start)
	// Every ticket delivers exactly one disposition: a second one still
	// buffered is a duplicate. A ticket that timed out stays unresolved,
	// even if its disposition came later.
	for i, t := range tickets {
		if !got[i] {
			continue
		}
		select {
		case <-t.Done():
			s.led.resolve(ids[i])
		default:
		}
	}
	return ph
}

// dispositionError says why a submitted query failed: rejected, shed,
// an execution error, or a queue wait longer than its whole latency.
func dispositionError(submitErr error, d frontdoor.Disposition) error {
	switch {
	case submitErr != nil:
		return fmt.Errorf("rejected: %w", submitErr)
	case d.Outcome != frontdoor.OutcomeAdmitted:
		return fmt.Errorf("%s (%s)", d.Outcome, d.Reason)
	case d.Err != nil:
		return d.Err
	case d.Wait > d.Latency:
		return fmt.Errorf("queue wait %v exceeds latency %v", d.Wait, d.Latency)
	}
	return nil
}

func (s *streamMix) registries() []*metrics.Registry { return []*metrics.Registry{s.reg} }

func (s *streamMix) engineThreads() int { return s.threads }

func (s *streamMix) counts() (attempted, failed int64) { return s.attempted.Load(), s.failed.Load() }

// stop drains the front door and checks conservation and that every
// query resolved exactly once.
func (s *streamMix) stop() error {
	if s.fd == nil {
		return nil
	}
	var errs []error
	if !s.fd.Shutdown(10 * time.Second) {
		errs = append(errs, errors.New("front door did not drain"))
	}
	if err := checkConservation(s.attempted.Load(), s.fd.Stats()); err != nil {
		errs = append(errs, err)
	}
	if err := s.led.check(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}
