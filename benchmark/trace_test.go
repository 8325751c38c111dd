package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "slice", ID: 0, Parent: -1, Start: 0, End: 100},
		// Two concurrent clients under the slice: [10,50) and [30,70) cover
		// 60 between them, not 80.
		{Name: "post", ID: 1, Parent: 0, Start: 10, End: 50},
		{Name: "post", ID: 2, Parent: 0, Start: 30, End: 70},
		// Contained in what is already covered: adds nothing.
		{Name: "post", ID: 3, Parent: 0, Start: 35, End: 45},
		// Runs past the parent's end: clipped to [90,100).
		{Name: "post", ID: 4, Parent: 0, Start: 90, End: 120},
		// A grandchild takes from its own parent only.
		{Name: "place", ID: 5, Parent: 1, Start: 20, End: 30},
	}
	self := selfTimes(spans)
	for id, want := range map[int32]int64{0: 30, 1: 30, 2: 40, 3: 10, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	totals := totalsByName(spans)
	if len(totals) != 3 || totals[1].Name != "post" || totals[1].Count != 4 ||
		totals[1].Total != 40+40+10+30 || totals[1].Self != 30+40+10+30 {
		t.Errorf("totals by name = %+v", totals)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	b := tr.buf(8)
	sp := b.begin("slice", spanRef{}, 0)
	child := b.begin("call", sp, 0)
	child.end()
	sp.end()
	if b != nil || sp.id() != -1 || child.id() != -1 {
		t.Errorf("a nil tracer recorded: buf %v, ids %d %d", b, sp.id(), child.id())
	}
}

func TestTracerWritesParentsAcrossBuffers(t *testing.T) {
	tr := newTracer()
	main, worker := tr.buf(4), tr.buf(4)
	slice := main.begin("serve", spanRef{}, 3)
	call := worker.begin("POST /v1/place", slice, 3)
	call.end()
	slice.end()
	spans := tr.all()
	if len(spans) != 2 || spans[1].Parent != spans[0].ID || spans[1].Slice != 3 || spans[1].End < spans[1].Start {
		t.Fatalf("spans = %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "trace", "t.jsonl")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 4 || !strings.HasPrefix(lines[0], `{"total":"POST /v1/place","count":1,`) ||
		!strings.HasPrefix(lines[3], `{"span":"POST /v1/place","id":1,"parent":0,"slice":3,`) {
		t.Errorf("trace file:\n%s", data)
	}
}
