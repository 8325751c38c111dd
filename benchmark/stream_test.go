package main

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"optchain/serve"
)

func testStream(t *testing.T, spec string, n int) *stream {
	t.Helper()
	s, err := materialize(spec, n, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Every encoded line must decode, through the server's own Request type,
// to the transaction it was encoded from.
func TestBodiesRoundTripThroughServeRequest(t *testing.T) {
	for _, spec := range []string{"bitcoin", "hotspot", workloads[2].spec} {
		s := testStream(t, spec, 3000)
		for _, sh := range []shape{positional, named} {
			b := encodeBodies(s, sh, "c1-", 2500, 1024)
			if b.count() != 3 || b.offs[3] != len(b.buf) {
				t.Fatalf("%s: %d bodies, offsets %v", spec, b.count(), b.offs)
			}
			i := 0
			for body := 0; body < b.count(); body++ {
				lines := bytes.Split(bytes.TrimSuffix(b.body(body), []byte{'\n'}), []byte{'\n'})
				if want := min(1024, 2500-body*1024); len(lines) != want {
					t.Fatalf("%s: body %d has %d lines, want %d", spec, body, len(lines), want)
				}
				for _, line := range lines {
					var got serve.Request
					if err := json.Unmarshal(line, &got); err != nil {
						t.Fatalf("%s line %d %q: %v", spec, i, line, err)
					}
					want := serve.Request{Outputs: int(s.outs[i])}
					if sh == named {
						want.ID = "c1-" + strconv.Itoa(i)
						for _, in := range s.in(i) {
							want.Parents = append(want.Parents, "c1-"+strconv.Itoa(in))
						}
					} else if len(s.in(i)) > 0 {
						want.Inputs = s.in(i)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s line %d %q decoded to %+v, want %+v", spec, i, line, got, want)
					}
					i++
				}
			}
		}
	}
}

func TestMaterializeIsAFunctionOfTheSeed(t *testing.T) {
	a, b := testStream(t, workloads[2].spec, 5000), testStream(t, workloads[2].spec, 5000)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different streams")
	}
	c, err := materialize(workloads[2].spec, 5000, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.inputs, c.inputs) {
		t.Error("two seeds gave the same stream")
	}
	for i := 0; i < a.len(); i++ {
		for _, in := range a.in(i) {
			if in < 0 || in >= i {
				t.Fatalf("transaction %d spends %d", i, in)
			}
		}
	}
}

func TestNodesDeduplicates(t *testing.T) {
	s := &stream{inputs: []int{0, 0, 1, 0, 2, 2}, offs: []int32{0, 0, 2, 6}, outs: []int32{2, 2, 1}}
	nodes, offs := s.nodes()
	if !reflect.DeepEqual(nodes, []int32{0, 1, 0, 2}) || !reflect.DeepEqual(offs, []int32{0, 0, 1, 4}) {
		t.Errorf("nodes %v offs %v", nodes, offs)
	}
}
