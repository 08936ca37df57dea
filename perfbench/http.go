package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/frontdoor"
	"repro/internal/lsched"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/policystore"
	"repro/internal/rpcsched"
	"repro/internal/serving"
	"repro/internal/storage"
	"repro/internal/workload"
)

// httpClusterSSB is the whole serving stack as a closed loop: nproc
// keep-alive HTTP connections POST SSB (sf 1) plan summaries from 4
// tenants in both SLO classes, with no deadline, through the front
// door's HTTP handler and learned admission to a coordinator routing by
// least predicted load over rpcsched TCP to 2 nodes, each running a
// PlanPool over an EngineBackend with its own copy of the trained
// policy. The queries are light, so per-request cost dominates.
type httpClusterSSB struct {
	seed           int64
	threads, conns int
	tr             *Tracer

	plans  []*plan.Plan
	cats   [httpNodes]*storage.Catalog
	agent  *lsched.Agent
	bodies [][]byte // one per (plan, tenant, class), see body

	nodes  []*httpNode
	coord  *cluster.Coordinator
	fd     *frontdoor.FrontDoor
	srv    *http.Server
	srvErr chan error
	url    string
	client *http.Client
	rng    *rand.Rand

	attempted, clientFailed atomic.Int64
}

// httpNode is one worker node and its RPC server.
type httpNode struct {
	id       string
	reg      *metrics.Registry
	check    *planCheck
	srv      *rpcsched.Server
	serveErr chan error
}

const (
	httpNodes      = 2
	httpTenants    = 4
	httpRowsPerBlk = 2048
	httpMaxBlocks  = 8
	// httpTimeout bounds one request, so a lost reply is a counted
	// failure rather than a hung run.
	httpTimeout = 10 * time.Second
)

var classNames = [2]string{"latency", "throughput"}

func (h *httpClusterSSB) setup(seed int64) (setupTimes, error) {
	var st setupTimes
	h.seed = seed
	h.plans = workload.SSB(1)
	if err := timed(&st.catalog, func() error {
		for i := range h.cats {
			cat, err := workload.SyntheticCatalog(h.plans, httpRowsPerBlk, httpMaxBlocks, dataSeed)
			if err != nil {
				return err
			}
			h.cats[i] = cat
		}
		return nil
	}); err != nil {
		return st, err
	}
	if err := timed(&st.train, func() (err error) {
		h.agent, err = trainAgent(h.plans, h.threads)
		return err
	}); err != nil {
		return st, err
	}
	// The reference is the request each plan is sent as: its summary,
	// which the plan check compares the executed plan against.
	err := timed(&st.reference, func() error {
		h.bodies = h.bodies[:0]
		for _, p := range h.plans {
			for t := 0; t < httpTenants; t++ {
				for _, class := range classNames {
					body, err := json.Marshal(frontdoor.Request{
						Tenant: fmt.Sprintf("tenant-%d", t),
						Class:  class,
						Ops:    frontdoor.SummarizePlan(p),
					})
					if err != nil {
						return err
					}
					h.bodies = append(h.bodies, body)
				}
			}
		}
		return nil
	})
	return st, err
}

// body returns the request for plan p from tenant t in class c.
func (h *httpClusterSSB) body(p, t, c int) []byte {
	return h.bodies[(p*httpTenants+t)*len(classNames)+c]
}

func (h *httpClusterSSB) start() error {
	h.rng = rand.New(rand.NewSource(h.seed))
	ck, err := h.agent.Checkpoint()
	if err != nil {
		return err
	}
	load := serving.LSchedLoader(lsched.DefaultOptions(trainSeed))
	// One query at a time per node: concurrent runs on one node's agent
	// fail now and then (README, F3), and least-loaded routing alone
	// does not keep a second query off a busy node.
	h.coord = cluster.New(cluster.Options{Policy: cluster.LeastLoaded{}, MaxPerNode: 1})
	for i := 0; i < httpNodes; i++ {
		n, addr, err := h.startNode(i, load, ck)
		if err != nil {
			return err
		}
		h.nodes = append(h.nodes, n)
		client, err := cluster.DialNode("tcp", addr, rpcsched.RetryOptions{})
		if err != nil {
			return err
		}
		if err := h.coord.AddNode(n.id, &tracedNodeClient{inner: client, tr: h.tr}); err != nil {
			return err
		}
	}
	if err := h.coord.Start(); err != nil {
		return err
	}
	h.fd, err = frontdoor.New(frontdoor.Options{
		Backend:    &tracedBackend{name: "cluster.run", inner: h.coord, tr: h.tr},
		Controller: &tracedController{inner: frontdoor.NewLearned(h.agent.Admission()), tr: h.tr},
	})
	if err != nil {
		return err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.Handle("/query", h.fd.Handler())
	h.srv = &http.Server{Handler: mux}
	h.srvErr = make(chan error, 1)
	go func() { h.srvErr <- h.srv.Serve(lis) }()
	h.url = "http://" + lis.Addr().String() + "/query"
	h.client = &http.Client{Timeout: httpTimeout, Transport: &http.Transport{
		MaxIdleConnsPerHost: h.conns,
		MaxConnsPerHost:     h.conns,
		DisableCompression:  true,
	}}
	return nil
}

// startNode builds node i: its own engine, registry and copy of the
// policy, served over rpcsched on a loopback port.
func (h *httpClusterSSB) startNode(i int, load func(*policystore.Checkpoint) (engine.Scheduler, error), params []byte) (*httpNode, string, error) {
	n := &httpNode{id: fmt.Sprintf("node-%d", i), reg: metrics.NewRegistry()}
	policy, err := load(&policystore.Checkpoint{Manifest: policystore.Manifest{Version: 1}, Params: params})
	if err != nil {
		return nil, "", err
	}
	hot := serving.NewHotAgent(policy, 1)
	live := engine.NewLive(h.cats[i], engine.LiveConfig{Threads: h.threads, Metrics: n.reg})
	if err := live.Validate(h.plans); err != nil {
		return nil, "", err
	}
	eng := frontdoor.NewEngineBackend(live, &tracedScheduler{inner: hot, tr: h.tr})
	n.check = &planCheck{inner: &tracedBackend{name: "engine.run", inner: eng, tr: h.tr}}
	pool, err := frontdoor.NewPlanPool(n.check, h.plans)
	if err != nil {
		return nil, "", err
	}
	node, err := cluster.NewNode(cluster.NodeOptions{
		ID:      n.id,
		Backend: &tracedBackend{name: "node.run", inner: pool, tr: h.tr},
		Hot:     hot,
		Loader:  load,
		Metrics: n.reg,
	})
	if err != nil {
		return nil, "", err
	}
	n.srv, err = rpcsched.NewServer(hot, rpcsched.ServerOptions{})
	if err != nil {
		return nil, "", err
	}
	if err := cluster.MountNode(n.srv, node); err != nil {
		return nil, "", err
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	n.serveErr = make(chan error, 1)
	go func() { n.serveErr <- n.srv.Serve(lis) }()
	return n, lis.Addr().String(), nil
}

// wrongPlans sums the nodes' plan-check failures.
func (h *httpClusterSSB) wrongPlans() int64 {
	var n int64
	for _, node := range h.nodes {
		n += node.check.wrong.Load()
	}
	return n
}

// run sends whole rounds, each every SSB plan once in a seeded order
// with a seeded tenant and class per request, over h.conns closed-loop
// connections, until d has passed (at least one round).
func (h *httpClusterSSB) run(d time.Duration) *phase {
	type sample struct{ rt, server, wait float64 }
	var (
		mu      sync.Mutex
		queue   [][]byte
		started int
		samples []sample
	)
	start := time.Now()
	next := func() ([]byte, bool) {
		mu.Lock()
		defer mu.Unlock()
		if len(queue) == 0 {
			if started > 0 && time.Since(start) >= d {
				return nil, false
			}
			started++
			for _, p := range h.rng.Perm(len(h.plans)) {
				queue = append(queue, h.body(p, h.rng.Intn(httpTenants), h.rng.Intn(len(classNames))))
			}
		}
		b := queue[0]
		queue = queue[1:]
		return b, true
	}
	routed0 := h.coord.Status()
	var wg sync.WaitGroup
	for c := 0; c < h.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				body, ok := next()
				if !ok {
					return
				}
				s, err := h.post(body)
				if err != nil {
					h.clientFailed.Add(1)
					fmt.Fprintf(os.Stderr, "http-cluster-ssb: %v\n", err)
					continue
				}
				mu.Lock()
				samples = append(samples, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ph := &phase{wall: time.Since(start), queries: started * len(h.plans)}
	ph.completed = len(samples)
	for _, s := range samples {
		ph.lat = append(ph.lat, s.rt)
		ph.serverLat = append(ph.serverLat, s.server)
		ph.wait = append(ph.wait, s.wait)
		ph.ingress = append(ph.ingress, s.rt-s.server)
	}
	ph.routed = make(map[string]float64)
	for i, n := range h.coord.Status().Nodes {
		ph.routed[n.ID] = float64(n.Routed - routed0.Nodes[i].Routed)
	}
	return ph
}

// post sends one request and checks the reply: 200, admitted, no
// execution error, and a server latency within the round trip.
func (h *httpClusterSSB) post(body []byte) (s struct{ rt, server, wait float64 }, err error) {
	h.attempted.Add(1)
	t0 := time.Now()
	resp, err := h.client.Post(h.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return s, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	rt := ms(time.Since(t0))
	if err != nil {
		return s, err
	}
	var r frontdoor.Response
	if err := json.Unmarshal(data, &r); err != nil {
		return s, fmt.Errorf("status %d, undecodable reply %q: %w", resp.StatusCode, data, err)
	}
	switch {
	case resp.StatusCode != http.StatusOK || r.Outcome != "admitted":
		return s, fmt.Errorf("status %d, outcome %q (%s)", resp.StatusCode, r.Outcome, r.Reason)
	case r.Error != "":
		return s, errors.New(r.Error)
	case r.LatencyMS > rt:
		return s, fmt.Errorf("server latency %.3f ms exceeds the round trip %.3f ms", r.LatencyMS, rt)
	}
	s.rt, s.server, s.wait = rt, r.LatencyMS, r.WaitMS
	return s, nil
}

func (h *httpClusterSSB) registries() []*metrics.Registry {
	regs := make([]*metrics.Registry, len(h.nodes))
	for i, n := range h.nodes {
		regs[i] = n.reg
	}
	return regs
}

func (h *httpClusterSSB) engineThreads() int { return h.threads * len(h.nodes) }

func (h *httpClusterSSB) counts() (attempted, failed int64) {
	return h.attempted.Load(), h.clientFailed.Load() + h.wrongPlans()
}

// stop shuts the stack down front to back and checks conservation: the
// front door saw every request the client sent and gave each exactly
// one terminal outcome, and the coordinator completed or failed every
// query it routed.
func (h *httpClusterSSB) stop() error {
	var errs []error
	if h.client != nil {
		h.client.CloseIdleConnections()
	}
	if h.srv != nil {
		if err := h.srv.Close(); err != nil {
			errs = append(errs, err)
		}
		if err := <-h.srvErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if h.fd != nil {
		if !h.fd.Shutdown(10 * time.Second) {
			errs = append(errs, errors.New("front door did not drain"))
		}
		if err := checkConservation(h.attempted.Load(), h.fd.Stats()); err != nil {
			errs = append(errs, err)
		}
	}
	if h.coord != nil {
		if !h.coord.Close(10 * time.Second) {
			errs = append(errs, errors.New("coordinator did not drain"))
		}
		st := h.coord.Status()
		if st.Routed != st.Completed+st.Failed {
			errs = append(errs, fmt.Errorf("coordinator: routed %d != completed %d + failed %d",
				st.Routed, st.Completed, st.Failed))
		}
	}
	for _, n := range h.nodes {
		if err := n.srv.Shutdown(10 * time.Second); err != nil {
			errs = append(errs, err)
		}
		if err := <-n.serveErr; err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n.id, err))
		}
	}
	return errors.Join(errs...)
}
