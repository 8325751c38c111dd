package experiment

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
)

func init() {
	reporters.Must("text", func(w io.Writer) Reporter {
		return &textReporter{w: bufio.NewWriter(w)}
	})
	reporters.Must("jsonl", func(w io.Writer) Reporter {
		bw := bufio.NewWriter(w)
		return &jsonlReporter{w: bw, enc: json.NewEncoder(bw)}
	})
	reporters.Must("csv", func(w io.Writer) Reporter {
		return &csvReporter{w: csv.NewWriter(w)}
	})
}

// textReporter renders rows as an aligned table — the human-readable
// default of cmd/optchain-bench -sweep.
type textReporter struct {
	w      *bufio.Writer
	header bool // header printed?
}

// textCols is the column subset the text table shows (the full field set
// would not fit a terminal; csv/jsonl carry everything). Widths cover the
// realistic value range — cell IDs run ~55-60 characters and the shared
// shortest-round-trip float formatting up to ~18 — so rows stay aligned
// without rounding away the byte-comparability with csv/jsonl.
var textCols = map[string]int{
	"id": -62, "strategy": -11, "protocol": -11, "shards": 7, "rate": 9,
	"workload": -24, "committed": 10, "steady_tps": 19,
	"avg_latency_sec": 19, "cross_fraction": 20, "peak_queue": 10, "cross": 9,
}

// textOrder fixes the column order.
var textOrder = []string{
	"id", "strategy", "protocol", "shards", "rate", "workload", "committed",
	"steady_tps", "avg_latency_sec", "cross_fraction", "peak_queue", "cross",
}

func (t *textReporter) Begin(s Sweep, p Params) error {
	if s.Name != "" {
		fmt.Fprintf(t.w, "== sweep %s (n=%d, seed=%d, %d validators/shard) ==\n",
			s.Name, p.N, p.Seed, p.Validators)
	}
	return nil
}

func (t *textReporter) Row(r Row) error {
	fields := make(map[string]string, 24)
	for _, f := range r.Fields() {
		fields[f.Name] = f.Value
	}
	if !t.header {
		t.header = true
		for _, name := range textOrder {
			fmt.Fprintf(t.w, "%*s ", textCols[name], name)
		}
		fmt.Fprintln(t.w)
	}
	for _, name := range textOrder {
		fmt.Fprintf(t.w, "%*s ", textCols[name], fields[name])
	}
	fmt.Fprintln(t.w)
	return nil
}

func (t *textReporter) End() error { return t.w.Flush() }

// jsonlReporter emits one self-describing JSON object per row — the
// machine-readable streaming form, read back by DecodeRows.
type jsonlReporter struct {
	w   *bufio.Writer
	enc *json.Encoder
}

func (j *jsonlReporter) Begin(s Sweep, p Params) error { return nil }

func (j *jsonlReporter) Row(r Row) error { return j.enc.Encode(r) }

func (j *jsonlReporter) End() error { return j.w.Flush() }

// csvReporter emits the canonical tabular field set, one header row then
// one record per row.
type csvReporter struct {
	w      *csv.Writer
	header bool
}

func (c *csvReporter) Begin(s Sweep, p Params) error { return nil }

func (c *csvReporter) Row(r Row) error {
	fields := r.Fields()
	if !c.header {
		c.header = true
		names := make([]string, len(fields))
		for i, f := range fields {
			names[i] = f.Name
		}
		if err := c.w.Write(names); err != nil {
			return err
		}
	}
	vals := make([]string, len(fields))
	for i, f := range fields {
		vals[i] = f.Value
	}
	return c.w.Write(vals)
}

func (c *csvReporter) End() error {
	c.w.Flush()
	return c.w.Error()
}
