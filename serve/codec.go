package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"unicode/utf8"
	"unsafe"
)

// This file is the line codec of /v1/place: a reader that cuts the request
// body into lines, a scanner that decodes the documented request grammar
// into per-window arenas, and an encoder that appends response lines. The
// scanner and the encoder are shortcuts, not definitions: whatever they do
// not recognise goes to encoding/json, which stays what a line means (the
// fuzz targets in codec_test.go hold the two equal).

// Maximum accepted length of one JSON request line.
const maxLineBytes = 1 << 20

// readBufBytes is the line reader's starting buffer. It grows only for a
// line longer than this, and a grown buffer is not pooled.
const readBufBytes = 64 << 10

// lineReader cuts a stream into lines (the newline and a carriage return
// before it dropped, a last line needing neither) in a buffer it reuses. A
// returned line is valid until the next call.
type lineReader struct {
	r      io.Reader
	buf    []byte
	lo, hi int   // buf[lo:hi] is read and not yet returned
	err    error // what ended the stream: io.EOF at a clean end
}

func (lr *lineReader) reset(r io.Reader) {
	if cap(lr.buf) > readBufBytes {
		lr.buf = nil
	}
	lr.r, lr.lo, lr.hi, lr.err = r, 0, 0, nil
}

// next returns the next line. A line longer than maxLineBytes is skipped to
// its newline and reported as tooLong with no bytes; ok is false when the
// stream has ended (lr.err then says how).
func (lr *lineReader) next() (line []byte, tooLong, ok bool) {
	searched := 0 // bytes of buf[lo:hi] known to hold no newline
	for {
		if i := bytes.IndexByte(lr.buf[lr.lo+searched:lr.hi], '\n'); i >= 0 {
			n := searched + i
			line = lr.buf[lr.lo : lr.lo+n]
			lr.lo += n + 1
			if tooLong || n > maxLineBytes {
				return nil, true, true
			}
			return dropCR(line), false, true
		}
		searched = lr.hi - lr.lo
		if searched > maxLineBytes {
			// Keep looking for the newline, but keep none of the line.
			tooLong, searched, lr.lo = true, 0, lr.hi
		}
		if lr.err != nil {
			line = lr.buf[lr.lo:lr.hi]
			lr.lo = lr.hi
			if tooLong {
				return nil, true, true
			}
			return dropCR(line), false, len(line) > 0
		}
		lr.fill()
	}
}

// drained reports, without reading, whether the stream has ended cleanly
// and every byte read from it has been returned as a line: next has nothing
// left to return. net/http hands out the end of a body of known length
// together with its last bytes.
func (lr *lineReader) drained() bool { return lr.err == io.EOF && lr.lo == lr.hi }

// fill reads more of the stream behind buf[lo:hi], making room first by
// moving the unread bytes to the front or, when they fill the buffer, by
// doubling it.
func (lr *lineReader) fill() {
	if lr.lo > 0 {
		lr.hi = copy(lr.buf, lr.buf[lr.lo:lr.hi])
		lr.lo = 0
	}
	if lr.hi == len(lr.buf) {
		// next asks for more only while the line is within maxLineBytes.
		grown := make([]byte, min(max(2*len(lr.buf), readBufBytes), maxLineBytes+1))
		copy(grown, lr.buf[:lr.hi])
		lr.buf = grown
	}
	// A Reader may return no bytes and no error; one that keeps doing so
	// is broken, as for bufio.
	for tries := 0; tries < 100; tries++ {
		n, err := lr.r.Read(lr.buf[lr.hi:])
		lr.hi += n
		if err != nil {
			lr.err = err
			return
		}
		if n > 0 {
			return
		}
	}
	lr.err = io.ErrNoProgress
}

func dropCR(line []byte) []byte {
	if n := len(line); n > 0 && line[n-1] == '\r' {
		return line[:n-1]
	}
	return line
}

// window is one batch of decoded request lines and their answers, up to
// MaxBatch of them: what the handler hands the placer at once. The Inputs
// and Parents of a scanned request are slices of the window's arenas, and
// its Parents strings alias text, so all are valid only until reset; an ID
// is a string of its own, because the server's id map keeps it.
type window struct {
	reqs []Request
	res  []outcome // res[i] answers reqs[i]; a line that failed to decode arrives with err set
	ints []int
	strs []string
	text []byte
}

func (w *window) reset() {
	clear(w.reqs)
	clear(w.res)
	w.reqs, w.res, w.ints, w.strs, w.text = w.reqs[:0], w.res[:0], w.ints[:0], w.strs[:0], w.text[:0]
}

// decode appends the request one line holds.
func (w *window) decode(line []byte) error {
	req, ok := w.scan(line)
	if !ok {
		var slow Request // of its own: Unmarshal's argument lives on the heap
		if err := json.Unmarshal(line, &slow); err != nil {
			return err
		}
		req = slow
	}
	w.reqs = append(w.reqs, req)
	w.res = append(w.res, outcome{})
	return nil
}

// fail appends a line that is answered with err without reaching the placer.
func (w *window) fail(err error) {
	w.reqs = append(w.reqs, Request{})
	w.res = append(w.res, outcome{err: err})
}

// maxIntDigits is how many decimal digits always fit an int.
const maxIntDigits = 9 * strconv.IntSize / 32

const (
	keyID = 1 << iota
	keyInputs
	keyParents
	keyOutputs
)

// scan decodes a line of the documented grammar without allocating beyond
// the id string: one object whose keys are "id", "inputs", "parents" and
// "outputs", each at most once and in any order, with plain strings (no
// escapes, valid UTF-8) and plain non-negative decimal integers. ok is false
// for every other line, valid or not, and the arenas are then as they were.
func (w *window) scan(b []byte) (req Request, ok bool) {
	ints, strs, text := len(w.ints), len(w.strs), len(w.text)
	if req, ok = w.scanObject(b); !ok {
		w.ints, w.strs, w.text = w.ints[:ints], w.strs[:strs], w.text[:text]
	}
	return req, ok
}

func (w *window) scanObject(b []byte) (req Request, ok bool) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] != '{' {
		return req, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return req, skipSpace(b, i+1) == len(b)
	}
	seen := 0
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return req, false
		}
		i = skipSpace(b, j)
		if i == len(b) || b[i] != ':' {
			return req, false
		}
		i = skipSpace(b, i+1)
		bit := 0
		switch string(key) {
		case "id":
			var id []byte
			id, i, ok = scanString(b, i)
			bit, req.ID = keyID, string(id)
		case "inputs":
			bit = keyInputs
			req.Inputs, i, ok = w.scanInts(b, i)
		case "parents":
			bit = keyParents
			req.Parents, i, ok = w.scanStrings(b, i)
		case "outputs":
			bit = keyOutputs
			req.Outputs, i, ok = scanInt(b, i)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return req, false
		}
		seen |= bit
		i = skipSpace(b, i)
		if i == len(b) {
			return req, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return req, skipSpace(b, i+1) == len(b)
		default:
			return req, false
		}
	}
}

// skipSpace returns the index of the first byte of b at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\r' || b[i] == '\n') {
		i++
	}
	return i
}

// scanString reads a string literal at b[i] that needs no unquoting and
// returns its bytes and the index after the closing quote.
func scanString(b []byte, i int) (s []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return nil, i, false
	}
	ascii := true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			s = b[i+1 : j]
			return s, j + 1, ascii || utf8.Valid(s)
		case c == '\\' || c < ' ':
			return nil, i, false
		case c >= utf8.RuneSelf:
			ascii = false
		}
	}
	return nil, i, false
}

// scanInt reads a non-negative integer literal at b[i] that fits an int:
// no sign, no leading zero, no fraction or exponent (the caller rejects
// whatever byte follows the digits unless it ends the value).
func scanInt(b []byte, i int) (v, next int, ok bool) {
	j := i
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		v = v*10 + int(b[j]-'0')
		j++
	}
	n := j - i
	return v, j, n > 0 && n <= maxIntDigits && (b[i] != '0' || n == 1)
}

// scanInts reads an array of integers at b[i] into the ints arena.
func (w *window) scanInts(b []byte, i int) (vals []int, next int, ok bool) {
	lo := len(w.ints)
	next, ok = scanArray(b, i, func(i int) (int, bool) {
		v, j, ok := scanInt(b, i)
		w.ints = append(w.ints, v)
		return j, ok
	})
	return w.ints[lo:len(w.ints):len(w.ints)], next, ok
}

// scanStrings reads an array of strings at b[i]: the bytes go to the text
// arena and the strings that alias them to the strs arena.
func (w *window) scanStrings(b []byte, i int) (vals []string, next int, ok bool) {
	lo := len(w.strs)
	next, ok = scanArray(b, i, func(i int) (int, bool) {
		s, j, ok := scanString(b, i)
		at := len(w.text)
		w.text = append(w.text, s...)
		w.strs = append(w.strs, aliasString(w.text[at:]))
		return j, ok
	})
	return w.strs[lo:len(w.strs):len(w.strs)], next, ok
}

// scanArray reads an array at b[i], calling elem at the start of each
// element for the index after it.
func scanArray(b []byte, i int, elem func(i int) (next int, ok bool)) (next int, ok bool) {
	if i == len(b) || b[i] != '[' {
		return i, false
	}
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for {
		if i, ok = elem(i); !ok {
			return i, false
		}
		i = skipSpace(b, i)
		if i == len(b) {
			return i, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, true
		default:
			return i, false
		}
	}
}

// aliasString returns a string that shares b's bytes. The caller must not
// change them while the string is in use; window.text is only appended to
// until reset, and by then no request of the window is.
func aliasString(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// lineResult is one response line of the /v1/place stream. Successful lines
// carry index and shard; failed lines carry the error, an HTTP-equivalent
// code, and — for code 429 — the advertised backoff.
type lineResult struct {
	ID           string `json:"id,omitempty"`
	Index        int    `json:"index"`
	Shard        int    `json:"shard"`
	Error        string `json:"error,omitempty"`
	Code         int    `json:"code,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
}

// appendLine appends res and a newline to dst, byte for byte what a
// json.Encoder writes. A decision whose id needs no escaping is appended
// directly; error lines and other ids go through json.Marshal.
func appendLine(dst []byte, res lineResult) []byte {
	if res.Error != "" || res.Code != 0 || res.RetryAfterMS != 0 || !plain(res.ID) {
		b, err := json.Marshal(res)
		if err != nil {
			// Strings and integers always marshal.
			panic("serve: " + err.Error()) //optchain:fatal unreachable: lineResult holds only strings and integers
		}
		return append(append(dst, b...), '\n')
	}
	dst = append(dst, '{')
	if res.ID != "" {
		dst = append(append(append(dst, `"id":"`...), res.ID...), `",`...)
	}
	dst = strconv.AppendInt(append(dst, `"index":`...), int64(res.Index), 10)
	dst = strconv.AppendInt(append(dst, `,"shard":`...), int64(res.Shard), 10)
	return append(dst, "}\n"...)
}

// plain reports whether encoding/json writes s between quotes unchanged:
// printable ASCII without the quote, the backslash and the three characters
// json.Marshal escapes for HTML.
func plain(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < ' ' || c > '~' || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return false
		}
	}
	return true
}
