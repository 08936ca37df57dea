package main

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/costmodel"
	"repro/internal/frontdoor"
	"repro/internal/plan"
)

// planMatches reports whether p is the plan the request summarized:
// SummarizePlan(p) must give the request's operators, in order.
func planMatches(p *plan.Plan, ops []costmodel.OpWork) bool {
	sum := frontdoor.SummarizePlan(p)
	if len(sum) != len(ops) {
		return false
	}
	for i, s := range sum {
		if s.Type != ops[i].Key || s.Blocks != ops[i].Units {
			return false
		}
	}
	return true
}

// planCheck sits inside a frontdoor.PlanPool, between the pool and the
// engine: it sees the plan the pool picked for a request and counts the
// executions whose plan is not the one the request described. The query
// still runs, so the load is what the program would serve.
type planCheck struct {
	inner frontdoor.Backend
	// wrong counts executions of the wrong plan that otherwise
	// succeeded; a failed execution is already a failed request.
	wrong atomic.Int64
}

func (c *planCheck) Run(q *frontdoor.Query) (*frontdoor.Result, error) {
	p, _ := q.Payload.(*plan.Plan)
	ok := p != nil && planMatches(p, q.Ops)
	res, err := c.inner.Run(q)
	if err == nil && !ok {
		c.wrong.Add(1)
	}
	return res, err
}

// rowMismatches returns the queries of one batch whose output row count
// differs from the reference: got maps query ID to rows, and query i of
// the batch ran plans[i]. A query missing from got produced no output
// rows.
func rowMismatches(got map[int]int, plans []*plan.Plan, ref map[string]int) []int {
	var bad []int
	for i, p := range plans {
		want, ok := ref[p.QueryName]
		if !ok || got[i] != want {
			bad = append(bad, i)
		}
	}
	return bad
}

// ledger checks that every submitted query is resolved exactly once.
type ledger struct {
	mu       sync.Mutex
	resolved map[int]int
	n        int
}

func newLedger() *ledger { return &ledger{resolved: make(map[int]int)} }

// submit registers a new query and returns its id.
func (l *ledger) submit() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.n
	l.n++
	l.resolved[id] = 0
	return id
}

// resolve records one disposition for query id.
func (l *ledger) resolve(id int) {
	l.mu.Lock()
	l.resolved[id]++
	l.mu.Unlock()
}

// check returns an error naming the queries resolved never or more than
// once.
func (l *ledger) check() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	lost, dup := 0, 0
	for _, c := range l.resolved {
		switch {
		case c == 0:
			lost++
		case c > 1:
			dup++
		}
	}
	if lost > 0 || dup > 0 {
		return fmt.Errorf("%d of %d queries never resolved, %d resolved more than once", lost, l.n, dup)
	}
	return nil
}

// checkConservation compares the front door's terminal buckets with the
// number of queries the benchmark submitted.
func checkConservation(sent int64, st frontdoor.Stats) error {
	if st.Submitted != sent || st.Admitted+st.Shed+st.Rejected != st.Submitted {
		return fmt.Errorf("front door: sent %d, submitted %d, admitted %d + shed %d + rejected %d",
			sent, st.Submitted, st.Admitted, st.Shed, st.Rejected)
	}
	return nil
}
