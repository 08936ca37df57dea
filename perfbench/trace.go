package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/frontdoor"
)

// Span is one timed crossing of a layer boundary. Times are nanoseconds
// since the tracer started. Parent indexes the span that caused this
// one, or is -1 where the boundary does not reveal it (a call that
// crosses a goroutine or a socket the benchmark cannot see through).
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	// Req identifies the *frontdoor.Query the boundary passed through
	// (its address while the query was live), 0 where there was none.
	Req uintptr `json:"-"`
}

// Tracer keeps spans in memory while it is on; spans are written out
// once, when the run ends. A nil *Tracer records nothing, and so does a
// tracer that is off, so the untraced runs pay one atomic load per
// boundary crossing.
type Tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer returns a tracer that is off.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// SetOn switches recording on or off.
func (t *Tracer) SetOn(on bool) { t.on.Store(on) }

// On reports whether spans are being recorded.
func (t *Tracer) On() bool { return t != nil && t.on.Load() }

// Begin opens a span and returns its index (-1 when not recording).
func (t *Tracer) Begin(name string, parent int, q *frontdoor.Query) int {
	if !t.On() {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Start: now, End: now, Parent: parent, Req: reqID(q)})
	return len(t.spans) - 1
}

// End closes the span Begin returned (a no-op for -1).
func (t *Tracer) End(i int) {
	if i < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

func reqID(q *frontdoor.Query) uintptr { return uintptr(unsafe.Pointer(q)) }

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children that overlap each
// other are counted once, and a child running past its parent's end is
// clipped to the parent.
func selfTimes(spans []Span) []int64 {
	kids := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = (s.End - s.Start) - covered(spans, kids[i], s.Start, s.End)
	}
	return out
}

// covered returns how much of [lo, hi) the union of the given spans
// covers.
func covered(spans []Span, idx []int, lo, hi int64) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, j := range idx {
		a, b := spans[j].Start, spans[j].End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
	var total, curA, curB int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curA, curB, open = v.a, v.b, true
		case v.a <= curB:
			if v.b > curB {
				curB = v.b
			}
		default:
			total += curB - curA
			curA, curB = v.a, v.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// layerStats sums the durations and self times of the spans with each
// name, and the durations of those whose parent is unknown.
type layerStats struct {
	n                  int
	total, own, orphan int64 // nanoseconds
}

func (l layerStats) meanMS() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.total) / float64(l.n) / 1e6
}

func byLayer(spans []Span) map[string]layerStats {
	self := selfTimes(spans)
	out := make(map[string]layerStats)
	for i, s := range spans {
		l := out[s.Name]
		l.n++
		l.total += s.End - s.Start
		l.own += self[i]
		if s.Parent < 0 {
			l.orphan += s.End - s.Start
		}
		out[s.Name] = l
	}
	return out
}

// writeSpans writes the spans as JSON lines, one span per line, with
// the request id as a hex address.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Span
		Index int    `json:"index"`
		Req   string `json:"req,omitempty"`
	}
	for i, s := range spans {
		l := line{Span: s, Index: i}
		if s.Req != 0 {
			l.Req = fmt.Sprintf("%#x", s.Req)
		}
		if err := enc.Encode(l); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
