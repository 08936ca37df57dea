package main

import (
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
)

// The wrappers below sit on the program's public interfaces at each
// layer boundary. Each records one span per call while its tracer is
// on, and otherwise only forwards.

// tracedBackend records one span per frontdoor.Backend.Run.
type tracedBackend struct {
	name  string
	inner frontdoor.Backend
	tr    *Tracer
}

func (b *tracedBackend) Run(q *frontdoor.Query) (*frontdoor.Result, error) {
	i := b.tr.Begin(b.name, -1, q)
	res, err := b.inner.Run(q)
	b.tr.End(i)
	return res, err
}

// tracedController records one span per admission decision.
type tracedController struct {
	inner frontdoor.Controller
	tr    *Tracer
}

func (c *tracedController) Name() string { return c.inner.Name() }

func (c *tracedController) Decide(f *lsched.AdmissionFeatures, q *frontdoor.Query) frontdoor.Decision {
	i := c.tr.Begin("admission.decide", -1, q)
	d := c.inner.Decide(f, q)
	c.tr.End(i)
	return d
}

func (c *tracedController) Observe(f *lsched.AdmissionFeatures, q *frontdoor.Query, met bool) {
	c.inner.Observe(f, q, met)
}

// tracedScheduler records one span per scheduling decision and
// forwards query completions to the wrapped scheduler (when it
// observes them) and to done, which stamps each query's wall-clock
// completion. parent, when set, names the span a decision belongs to
// (the batch in flight); the engine's event loop calls OnEvent on one
// goroutine per run, so that is known only where one run is in flight.
type tracedScheduler struct {
	inner  engine.Scheduler
	tr     *Tracer
	parent func() int
	done   func(queryID int, at time.Time)
}

func (s *tracedScheduler) Name() string { return s.inner.Name() }

func (s *tracedScheduler) OnEvent(st *engine.State, ev engine.Event) []engine.Decision {
	parent := -1
	if s.parent != nil {
		parent = s.parent()
	}
	i := s.tr.Begin("lsched.decide", parent, nil)
	d := s.inner.OnEvent(st, ev)
	s.tr.End(i)
	return d
}

func (s *tracedScheduler) QueryCompleted(queryID int, arrival, completion float64) {
	if s.done != nil {
		s.done(queryID, time.Now())
	}
	if o, ok := s.inner.(engine.QueryObserver); ok {
		o.QueryCompleted(queryID, arrival, completion)
	}
}

// tracedNodeClient records one span per routed Submit; heartbeats and
// policy installs only pass through.
type tracedNodeClient struct {
	inner cluster.NodeClient
	tr    *Tracer
}

func (c *tracedNodeClient) Submit(req *cluster.SubmitRequest) (*cluster.SubmitReply, error) {
	i := c.tr.Begin("rpc.submit", -1, nil)
	r, err := c.inner.Submit(req)
	c.tr.End(i)
	return r, err
}

func (c *tracedNodeClient) Health() (*cluster.HealthReply, error) { return c.inner.Health() }

func (c *tracedNodeClient) Install(req *cluster.InstallRequest) (*cluster.InstallReply, error) {
	return c.inner.Install(req)
}

func (c *tracedNodeClient) Close() error { return c.inner.Close() }
