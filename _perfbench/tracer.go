package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a public seam of the program, recorded by the
// benchmark's own wrappers. Spans of one job or cell share its Key.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Key    string `json:"key,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; they are written out once, at the end of
// the run. A nil *tracer records nothing, which is how untraced phases
// run the same code paths without instrumentation.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
	// marked is the number of spans recorded before the measured phase;
	// durations and count look only at the spans after it.
	marked int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID; end closes it.
func (t *tracer) begin(name, key string, parent int64) int64 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Key: key, Start: now, End: -1})
	return t.next
}

func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
}

// record adds an already-timed span.
func (t *tracer) record(name, key string, parent int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name, Key: key,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return t.next
}

// mark starts the measured phase: spans recorded so far (set-up,
// warm-up) no longer count in durations and count.
func (t *tracer) mark() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.marked = len(t.spans)
	t.mu.Unlock()
}

// closed returns the spans that ended.
func (t *tracer) closed() []span { return t.closedFrom(0) }

func (t *tracer) closedFrom(from int) []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = t.marked
	}
	out := make([]span, 0, len(t.spans)-from)
	for _, s := range t.spans[from:] {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// durations lists the durations in milliseconds of the measured phase's
// spans named name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.closedFrom(-1) {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// count returns how many of the measured phase's spans carry one of the
// names.
func (t *tracer) count(names ...string) int {
	n := 0
	for _, s := range t.closedFrom(-1) {
		for _, name := range names {
			if s.Name == name {
				n++
			}
		}
	}
	return n
}

// selfTime is the summed self time of the spans of one name and how many
// there were.
type selfTime struct {
	d time.Duration
	n int
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval covered by its child spans, over every span recorded.
func (t *tracer) selfTimes() map[string]selfTime {
	spans := t.closed()
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]selfTime{}
	for _, s := range spans {
		st := out[s.Name]
		st.d += time.Duration(s.End - s.Start - coverage(s, children[s.ID]))
		st.n++
		out[s.Name] = st
	}
	return out
}

// coverage is the length of the union of the children's intervals,
// clipped to the parent's.
func coverage(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeFile writes the spans as JSON to path.
func (t *tracer) writeFile(path string) error {
	raw, err := json.Marshal(t.closed())
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
