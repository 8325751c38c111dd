package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// sameRequest reports whether two decoded requests mean the same to the
// placer: an empty list and a missing one do.
func sameRequest(a, b Request) bool {
	return a.ID == b.ID && a.Outputs == b.Outputs &&
		slices.Equal(a.Inputs, b.Inputs) && slices.Equal(a.Parents, b.Parents)
}

// scanned lines are the shapes clients send: the scanner must take them
// itself, or the gateway is back to encoding/json speed without any test
// failing.
var scanned = []string{
	`{}`,
	`{"outputs":2}`,
	`{"inputs":[0,17,123456789012345678],"outputs":1}`,
	`{"id":"tx-9","inputs":[3,7],"parents":["tx-4"],"outputs":2}`,
	`{"outputs":1,"parents":["a","b"],"id":"c"}`,
	"\t{ \"id\" : \"a b\" ,\r \"inputs\" : [ ] , \"parents\" : [ \"x\" , \"y\" ] , \"outputs\" : 0 } \r",
	`{"id":"héllo→","parents":["ünï"],"outputs":3}`,
	`{"id":"","parents":[""],"outputs":0}`,
}

// handedOver lines are valid or invalid JSON the scanner must not judge:
// encoding/json does.
var handedOver = []string{
	`{"ID":"a","outputs":1}`, `{"Id":"a"}`, `{"Outputs":1}`,
	`{"id":"a","id":"b"}`, `{"outputs":1,"outputs":2}`,
	`{"id":"a\u0062"}`, `{"id":"say \"hi\""}`, `{"parents":["a\\b"]}`,
	`{"outputs":01}`, `{"outputs":-0}`, `{"outputs":-1}`, `{"inputs":[-1]}`,
	`{"outputs":1e3}`, `{"outputs":1.0}`, `{"outputs":9223372036854775808}`,
	`{"inputs":[1234567890123456789]}`,
	`{"id":null}`, `{"inputs":null}`, `null`, `{"extra":1,"outputs":1}`,
	`{"inputs":[[1]]}`, `{"parents":[{"a":1}]}`, `{"outputs":{"n":1}}`,
	`{"outputs":1} x`, `{"outputs":1}{"outputs":2}`, `{"outputs":1,}`, `{,}`,
	`{"outputs":`, `{"inputs":[1,]}`, `{"inputs":[1 2]}`, `[1]`, `"a"`, `7`, ``,
	"{\"id\":\"a\xffb\"}", "{\"parents\":[\"\xc3\x28\"]}", "{\"id\":\"a\tb\"}", `{"id":"a`,
}

func TestScanTakesTheDocumentedGrammar(t *testing.T) {
	var w window
	for _, line := range scanned {
		got, ok := w.scan([]byte(line))
		var want Request
		if err := json.Unmarshal([]byte(line), &want); err != nil {
			t.Fatalf("%q: seed is not valid JSON: %v", line, err)
		}
		if !ok || !sameRequest(got, want) {
			t.Errorf("scan(%q) = %+v, %v; want %+v from the scanner itself", line, got, ok, want)
		}
	}
	for _, line := range handedOver {
		if got, ok := w.scan([]byte(line)); ok {
			t.Errorf("scan(%q) = %+v: the scanner must leave this line to encoding/json", line, got)
		}
	}
}

// FuzzRequestLine holds the scanner to its oracle: a line it takes is one
// json.Unmarshal accepts, with an equal Request; a line it hands over
// leaves the arenas as they were; and either way decode answers what
// json.Unmarshal alone would.
func FuzzRequestLine(f *testing.F) {
	for _, line := range slices.Concat(scanned, handedOver) {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		var want Request
		wantErr := json.Unmarshal(line, &want)

		var w window
		w.decode([]byte(`{"inputs":[1],"parents":["p"],"outputs":1}`)) // the arenas are in use
		ints, strs, text := len(w.ints), len(w.strs), len(w.text)
		got, ok := w.scan(line)
		switch {
		case ok && wantErr != nil:
			t.Fatalf("scan(%q) = %+v, json.Unmarshal: %v", line, got, wantErr)
		case ok && !sameRequest(got, want):
			t.Fatalf("scan(%q) = %+v, json.Unmarshal = %+v", line, got, want)
		case !ok && (len(w.ints) != ints || len(w.strs) != strs || len(w.text) != text):
			t.Fatalf("scan(%q) handed the line over with the arenas moved", line)
		}

		w.reset()
		err := w.decode(line)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decode(%q): %v, json.Unmarshal: %v", line, err, wantErr)
		}
		if err == nil && !sameRequest(w.reqs[0], want) {
			t.Fatalf("decode(%q) = %+v, json.Unmarshal = %+v", line, w.reqs[0], want)
		}
	})
}

// FuzzResponseLine: appendLine writes what a json.Encoder does, whatever
// the line holds.
func FuzzResponseLine(f *testing.F) {
	f.Add("", 0, 0, "", 0, int64(0))
	f.Add("tx-9", 41, 7, "", 0, int64(0))
	f.Add("a<b>&c", 1, 2, "", 0, int64(0))
	f.Add("q\"uo\\te\n \x7f\xff", -1, -2, "", 0, int64(0))
	f.Add("héllo", 1<<40, 15, "", 0, int64(0))
	f.Add("a", 0, 0, "serve: ingest queue full", 429, int64(1000))
	f.Add("", 3, 4, "", 400, int64(0))
	f.Add("", 3, 4, "", 0, int64(5))
	f.Fuzz(func(t *testing.T, id string, index, shard int, msg string, code int, retry int64) {
		res := lineResult{ID: id, Index: index, Shard: shard, Error: msg, Code: code, RetryAfterMS: retry}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(res); err != nil {
			t.Fatal(err)
		}
		if got := appendLine([]byte("kept"), res); string(got) != "kept"+want.String() {
			t.Fatalf("appendLine(%+v) = %q, json.Encoder writes %q", res, got[4:], want.String())
		}
	})
}

func TestCodecFastPathsDoNotAllocate(t *testing.T) {
	var w window
	positional := []byte(`{"inputs":[3,7,11],"outputs":2}`)
	named := []byte(`{"id":"tx-12345","inputs":[3],"parents":["tx-4","tx-5"],"outputs":2}`)
	w.scan(named) // grow the arenas once
	for name, c := range map[string]struct {
		line   []byte
		allocs float64
	}{"positional": {positional, 0}, "named: the id string the map keeps": {named, 1}} {
		got := testing.AllocsPerRun(100, func() {
			w.reset()
			if _, ok := w.scan(c.line); !ok {
				t.Fatalf("scan(%q) handed the line over", c.line)
			}
		})
		if got != c.allocs {
			t.Errorf("%s: scan allocates %v times a line, want %v", name, got, c.allocs)
		}
	}
	dst := make([]byte, 0, 256)
	if got := testing.AllocsPerRun(100, func() {
		dst = appendLine(dst[:0], lineResult{ID: "tx-12345", Index: 123456, Shard: 15})
		dst = appendLine(dst, lineResult{Index: 123457, Shard: 3})
	}); got != 0 {
		t.Errorf("appendLine allocates %v times for two decisions, want 0", got)
	}
}

// readLines drains a lineReader the way the handler does.
func readLines(r io.Reader) (lines []string, err error) {
	var lr lineReader
	lr.reset(r)
	for {
		line, tooLong, ok := lr.next()
		if !ok {
			return lines, lr.err
		}
		if tooLong {
			line = []byte("<too long>")
		}
		lines = append(lines, string(line))
	}
}

func TestLineReader(t *testing.T) {
	long := strings.Repeat("x", maxLineBytes+1)
	fits := strings.Repeat("y", maxLineBytes)
	for name, c := range map[string]struct {
		in   string
		want []string
	}{
		"empty":            {"", nil},
		"no final newline": {"a\nb", []string{"a", "b"}},
		"final newline":    {"a\nb\n", []string{"a", "b"}},
		"blank and CRLF":   {"a\r\n\n\r\nb\r", []string{"a", "", "", "b"}},
		"long in middle":   {"a\n" + long + "\nb\n", []string{"a", "<too long>", "b"}},
		"long at end":      {"a\n" + long, []string{"a", "<too long>"}},
		"longest allowed":  {fits + "\n" + fits, []string{fits, fits}},
		"grown buffer":     {strings.Repeat("z", 3*readBufBytes) + "\nb", []string{strings.Repeat("z", 3*readBufBytes), "b"}},
	} {
		for rname, r := range map[string]io.Reader{
			"whole":          strings.NewReader(c.in),
			"byte at a time": iotest.OneByteReader(strings.NewReader(c.in)),
			"data with EOF":  iotest.DataErrReader(strings.NewReader(c.in)),
		} {
			if name != "empty" && len(c.in) > readBufBytes && rname == "byte at a time" {
				continue // a million one-byte reads prove nothing more
			}
			got, err := readLines(r)
			if err != io.EOF || !slices.Equal(got, c.want) {
				t.Errorf("%s, %s: %d lines %.40q, %v; want %d lines %.40q", name, rname, len(got), got, err, len(c.want), c.want)
			}
		}
	}
	if got, err := readLines(iotest.TimeoutReader(strings.NewReader("a\nb\nc"))); err != iotest.ErrTimeout || !slices.Equal(got, []string{"a", "b", "c"}) {
		t.Errorf("failing reader: %q, %v; want the lines read so far and the reader's error", got, err)
	}
}

// BenchmarkRequestLine prices the scanner against the encoding/json call it
// stands in for, on the two line shapes the repo benchmark sends, and
// BenchmarkResponseLine does the same for the encoder.
func BenchmarkRequestLine(b *testing.B) {
	for _, c := range []struct{ name, line string }{
		{"positional", `{"inputs":[81234,81190,80007],"outputs":2}`},
		{"named", `{"id":"t81236","parents":["t81234","t81190"],"outputs":2}`},
	} {
		line := []byte(c.line)
		b.Run(c.name+"/scan", func(b *testing.B) {
			var w window
			for b.Loop() {
				w.reset()
				if _, ok := w.scan(line); !ok {
					b.Fatal("handed over")
				}
			}
		})
		b.Run(c.name+"/json", func(b *testing.B) {
			for b.Loop() {
				var req Request
				if err := json.Unmarshal(line, &req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkResponseLine(b *testing.B) {
	res := lineResult{ID: "t81236", Index: 81236, Shard: 11}
	b.Run("append", func(b *testing.B) {
		var dst []byte
		for b.Loop() {
			dst = appendLine(dst[:0], res)
		}
	})
	b.Run("json", func(b *testing.B) {
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		for b.Loop() {
			buf.Reset()
			if err := enc.Encode(res); err != nil {
				b.Fatal(err)
			}
		}
	})
}
