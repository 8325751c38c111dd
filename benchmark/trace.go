package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own code
// around the call. Start and End are nanoseconds since the tracer started;
// Parent is the ID of the span that caused it (-1 for a root) and Slice the
// round it belongs to.
type span struct {
	Name       string
	ID, Parent int32
	Slice      int32
	Start, End int64
}

// tracer hands out span buffers, one per goroutine that records, so
// recording takes no lock. A nil tracer records nothing: every method
// below is a no-op on nil, which is how the untraced run pays one branch
// per call site.
type tracer struct {
	t0   time.Time
	next atomic.Int32
	mu   sync.Mutex
	bufs []*spanBuf // guarded by mu
}

type spanBuf struct {
	tr    *tracer
	spans []span
}

// spanRef names an open (or closed) span; the zero value is "no span".
type spanRef struct {
	b *spanBuf
	i int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// buf returns a new buffer with room for n spans.
func (t *tracer) buf(n int) *spanBuf {
	if t == nil {
		return nil
	}
	b := &spanBuf{tr: t, spans: make([]span, 0, n)}
	t.mu.Lock()
	t.bufs = append(t.bufs, b)
	t.mu.Unlock()
	return b
}

func (b *spanBuf) begin(name string, parent spanRef, slice int) spanRef {
	if b == nil {
		return spanRef{}
	}
	b.spans = append(b.spans, span{
		Name: name, ID: b.tr.next.Add(1) - 1, Parent: parent.id(), Slice: int32(slice),
		Start: int64(time.Since(b.tr.t0)),
	})
	return spanRef{b, len(b.spans) - 1}
}

func (r spanRef) end() {
	if r.b != nil {
		r.b.spans[r.i].End = int64(time.Since(r.b.tr.t0))
	}
}

func (r spanRef) id() int32 {
	if r.b == nil {
		return -1
	}
	return r.b.spans[r.i].ID
}

// all returns every recorded span ordered by ID. Call it once recording
// goroutines have been joined.
func (t *tracer) all() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	slices.SortFunc(out, func(a, b span) int { return cmp.Compare(a.ID, b.ID) })
	return out
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its children cover. Children are clipped to the parent
// and overlapping children (concurrent clients under one slice) are
// counted once.
func selfTimes(spans []span) map[int32]int64 {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int32]int64, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, upTo := int64(0), s.Start
		for _, c := range iv {
			lo, hi := max(c[0], upTo), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				upTo = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// nameTotals aggregates spans by name: how many, their summed duration and
// their summed self time.
type nameTotals struct {
	Name        string
	Count       int
	Total, Self int64
}

func totalsByName(spans []span) []nameTotals {
	self := selfTimes(spans)
	byName := make(map[string]*nameTotals)
	for _, s := range spans {
		t := byName[s.Name]
		if t == nil {
			t = &nameTotals{Name: s.Name}
			byName[s.Name] = t
		}
		t.Count++
		t.Total += s.End - s.Start
		t.Self += self[s.ID]
	}
	out := make([]nameTotals, 0, len(byName))
	for _, t := range byName {
		out = append(out, *t)
	}
	slices.SortFunc(out, func(a, b nameTotals) int { return cmp.Compare(a.Name, b.Name) })
	return out
}

// write stores the trace as JSON lines: one "total" line per span name,
// then every span. The names are the benchmark's own identifiers, so they
// need no escaping.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	spans := t.all()
	for _, n := range totalsByName(spans) {
		fmt.Fprintf(w, `{"total":%q,"count":%d,"total_ns":%d,"self_ns":%d}`+"\n", n.Name, n.Count, n.Total, n.Self)
	}
	for _, s := range spans {
		fmt.Fprintf(w, `{"span":%q,"id":%d,"parent":%d,"slice":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Name, s.ID, s.Parent, s.Slice, s.Start, s.End)
	}
	return w.Flush()
}
