package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// Tolerances are the per-metric relative tolerances Diff classifies
// against. Each is a fraction of the old value (0.05 = 5%): a metric
// moving in its worse direction by more than the tolerance is a
// regression, in its better direction an improvement, anything inside the
// band unchanged. Zero tolerances demand exact reproduction — the setting
// the golden-row tests use. Directions: steady_tps regresses downward;
// cross_fraction, max_shard_share and ns/tx regress upward.
type Tolerances struct {
	// SteadyTPS bounds the relative drop in steady-state throughput.
	SteadyTPS float64
	// CrossFraction bounds the relative rise in cross-shard fraction, and in
	// a placement cell's max shard share: both are placement quality.
	CrossFraction float64
	// NsPerTx bounds the relative rise in wall nanoseconds per transaction
	// (WallSeconds over Total). It is host noise, so it is opt-in: zero or
	// negative disables the comparison entirely instead of demanding exact
	// wall clocks.
	NsPerTx float64
	// AllowMissing accepts cells present in the old rows but absent from
	// the new — the setting for gating a subset run against a fuller
	// row set. When false, a missing cell fails the gate.
	AllowMissing bool
}

// DefaultTolerances are the loose CI-gate defaults: 5% on the quality
// metrics, wall time not compared.
func DefaultTolerances() Tolerances {
	return Tolerances{SteadyTPS: 0.05, CrossFraction: 0.05}
}

// Verdict classifies one metric delta (and, per cell, the worst of its
// metric verdicts).
type Verdict string

const (
	// VerdictUnchanged: inside the tolerance band.
	VerdictUnchanged Verdict = "unchanged"
	// VerdictImproved: beyond tolerance in the better direction.
	VerdictImproved Verdict = "improved"
	// VerdictRegressed: beyond tolerance in the worse direction.
	VerdictRegressed Verdict = "regressed"
)

// MetricDelta is one compared metric of one joined cell.
type MetricDelta struct {
	// Metric is the column name (steady_tps, cross_fraction, ns_per_tx).
	Metric string `json:"metric"`
	// Old and New are the two values.
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// Rel is the signed relative delta (new-old)/|old|; ±Inf when old is
	// zero and new is not.
	Rel float64 `json:"rel"`
	// Verdict classifies the delta against the tolerance.
	Verdict Verdict `json:"verdict"`
}

// CellDiff is the comparison of one cell present in both row sets.
type CellDiff struct {
	// ID is the joined cell identity.
	ID string `json:"id"`
	// Verdict is the worst metric verdict (regressed > improved > unchanged).
	Verdict Verdict `json:"verdict"`
	// Metrics lists every compared metric delta.
	Metrics []MetricDelta `json:"metrics"`
}

// DiffReport is the outcome of joining two row sets on cell identity.
type DiffReport struct {
	// Tol echoes the tolerances the verdicts were classified against.
	Tol Tolerances `json:"tolerances"`
	// Cells are the joined cells, in new-row order.
	Cells []CellDiff `json:"cells"`
	// Missing lists cell IDs present only in the old rows (old-row order).
	Missing []string `json:"missing,omitempty"`
	// New lists cell IDs present only in the new rows (new-row order).
	New []string `json:"new,omitempty"`
}

// Diff joins two row sets on stable cell ID and classifies every metric
// delta against the tolerances. Duplicate cell IDs within either side, or
// two sets with no cell in common (a vacuous gate), fail with ErrBadCache.
// The report's Err method is the gate verdict.
func Diff(old, new []Row, tol Tolerances) (*DiffReport, error) {
	oldByID, err := indexRows(old, "old")
	if err != nil {
		return nil, err
	}
	newByID, err := indexRows(new, "new")
	if err != nil {
		return nil, err
	}
	rep := &DiffReport{Tol: tol}
	for _, n := range new {
		o, ok := oldByID[n.ID]
		if !ok {
			rep.New = append(rep.New, n.ID)
			continue
		}
		rep.Cells = append(rep.Cells, diffCell(o, n, tol))
	}
	for _, o := range old {
		if _, ok := newByID[o.ID]; !ok {
			rep.Missing = append(rep.Missing, o.ID)
		}
	}
	if len(rep.Cells) == 0 {
		return nil, fmt.Errorf("%w: no cells in common between old (%d rows) and new (%d rows); a diff that joins nothing gates nothing",
			ErrBadCache, len(old), len(new))
	}
	return rep, nil
}

// indexRows builds the by-ID index for one side, rejecting empty and
// duplicate IDs.
func indexRows(rows []Row, side string) (map[string]Row, error) {
	byID := make(map[string]Row, len(rows))
	for i, r := range rows {
		if r.ID == "" {
			return nil, fmt.Errorf("%w: %s row %d has no cell ID", ErrBadCache, side, i)
		}
		if _, dup := byID[r.ID]; dup {
			return nil, fmt.Errorf("%w: %s rows duplicate cell %q", ErrBadCache, side, r.ID)
		}
		byID[r.ID] = r
	}
	return byID, nil
}

// nsPerTx derives wall nanoseconds per transaction from a row (0 when the
// row carries no wall time or no transactions — cached rows are flat data).
func nsPerTx(r Row) float64 {
	if r.Total <= 0 || r.WallSeconds <= 0 {
		return 0
	}
	return r.WallSeconds * 1e9 / float64(r.Total)
}

// diffCell classifies one joined cell.
func diffCell(old, new Row, tol Tolerances) CellDiff {
	d := CellDiff{ID: new.ID, Verdict: VerdictUnchanged}
	d.Metrics = append(d.Metrics,
		classify("steady_tps", old.SteadyTPS, new.SteadyTPS, tol.SteadyTPS, true),
		classify("cross_fraction", old.CrossFraction, new.CrossFraction, tol.CrossFraction, false),
	)
	// Rows written before the column existed, and sim rows, carry no share.
	if old.MaxShardShare > 0 {
		d.Metrics = append(d.Metrics, classify("max_shard_share", old.MaxShardShare, new.MaxShardShare, tol.CrossFraction, false))
	}
	if tol.NsPerTx > 0 {
		d.Metrics = append(d.Metrics, classify("ns_per_tx", nsPerTx(old), nsPerTx(new), tol.NsPerTx, false))
	}
	for _, m := range d.Metrics {
		switch m.Verdict {
		case VerdictRegressed:
			d.Verdict = VerdictRegressed
		case VerdictImproved:
			if d.Verdict == VerdictUnchanged {
				d.Verdict = VerdictImproved
			}
		}
	}
	return d
}

// classify computes one metric delta. higherBetter selects the regression
// direction. With old == 0 and new != 0 the relative delta is ±Inf, which
// always exceeds any tolerance — a metric appearing from (or collapsing
// to) zero is never inside the band.
func classify(metric string, old, new, tol float64, higherBetter bool) MetricDelta {
	m := MetricDelta{Metric: metric, Old: old, New: new, Verdict: VerdictUnchanged}
	switch {
	case new == old:
		m.Rel = 0
		return m
	case old == 0:
		m.Rel = math.Inf(1)
		if new < 0 {
			m.Rel = math.Inf(-1)
		}
	default:
		m.Rel = (new - old) / math.Abs(old)
	}
	worse := m.Rel < 0
	if !higherBetter {
		worse = m.Rel > 0
	}
	if math.Abs(m.Rel) > tol {
		if worse {
			m.Verdict = VerdictRegressed
		} else {
			m.Verdict = VerdictImproved
		}
	}
	return m
}

// Counts tallies the joined cells per verdict.
func (d *DiffReport) Counts() (regressed, improved, unchanged int) {
	for _, c := range d.Cells {
		switch c.Verdict {
		case VerdictRegressed:
			regressed++
		case VerdictImproved:
			improved++
		default:
			unchanged++
		}
	}
	return regressed, improved, unchanged
}

// Err is the gate verdict: nil when no joined cell regressed and no cell
// is missing (or missing cells are allowed); otherwise an error wrapping
// ErrQualityRegression naming the first offending cell.
func (d *DiffReport) Err() error {
	regressed, _, _ := d.Counts()
	if regressed > 0 {
		first := ""
		for _, c := range d.Cells {
			if c.Verdict == VerdictRegressed {
				first = c.ID
				break
			}
		}
		return fmt.Errorf("%w: %d of %d joined cell(s) regressed beyond tolerance (first: %s)",
			ErrQualityRegression, regressed, len(d.Cells), first)
	}
	if len(d.Missing) > 0 && !d.Tol.AllowMissing {
		return fmt.Errorf("%w: %d cell(s) missing from the new rows (first: %s)",
			ErrQualityRegression, len(d.Missing), d.Missing[0])
	}
	return nil
}

// fpct formats a relative delta for the verdict table.
func fpct(rel float64) string {
	if math.IsInf(rel, 1) {
		return "+inf"
	}
	if math.IsInf(rel, -1) {
		return "-inf"
	}
	return fmt.Sprintf("%+.2f%%", rel*100)
}

// ftol formats one tolerance column of the table header.
func ftol(v float64) string {
	if v <= 0 {
		return "exact"
	}
	return strconv.FormatFloat(v*100, 'g', -1, 64) + "%"
}

// Render writes the human-readable verdict table: one line per metric that
// left the tolerance band, the missing/new cell lists, and a summary. The
// output is deterministic for deterministic inputs.
func (d *DiffReport) Render(w io.Writer) error {
	nstx := "off"
	if d.Tol.NsPerTx > 0 {
		nstx = ftol(d.Tol.NsPerTx)
	}
	if _, err := fmt.Fprintf(w, "quality diff (tol: steady_tps=%s cross_fraction=%s ns_per_tx=%s)\n",
		ftol(d.Tol.SteadyTPS), ftol(d.Tol.CrossFraction), nstx); err != nil {
		return err
	}
	for _, c := range d.Cells {
		for _, m := range c.Metrics {
			if m.Verdict == VerdictUnchanged {
				continue
			}
			if _, err := fmt.Fprintf(w, "  %-9s %-62s %-20s %14s -> %-14s %s\n",
				strings.ToUpper(string(m.Verdict)), c.ID, m.Metric, fnum(m.Old), fnum(m.New), fpct(m.Rel)); err != nil {
				return err
			}
		}
	}
	for _, id := range d.Missing {
		note := ""
		if d.Tol.AllowMissing {
			note = " (allowed)"
		}
		if _, err := fmt.Fprintf(w, "  MISSING   %s%s\n", id, note); err != nil {
			return err
		}
	}
	for _, id := range d.New {
		if _, err := fmt.Fprintf(w, "  NEW       %s\n", id); err != nil {
			return err
		}
	}
	regressed, improved, unchanged := d.Counts()
	_, err := fmt.Fprintf(w, "summary: %d joined (%d regressed, %d improved, %d unchanged), %d missing, %d new\n",
		len(d.Cells), regressed, improved, unchanged, len(d.Missing), len(d.New))
	return err
}

// DecodeRows reads a row set for diffing from either on-disk form the
// toolchain writes:
//
//   - raw JSONL sweep output (the jsonl reporter, and the committed
//     BENCH_quality.jsonl ledger): one Row object per value;
//   - a row-cache file (Params.CacheDir): a CacheSchema header line, then
//     rows.
//
// Malformed input — undecodable values, rows without a cell ID, duplicate
// cell IDs, a first value carrying any schema but the current CacheSchema
// — fails with ErrBadCache; DecodeRows never panics on arbitrary bytes
// (fuzzed by FuzzDiffRows).
func DecodeRows(r io.Reader) ([]Row, error) {
	dec := json.NewDecoder(r)
	var out []Row
	seen := make(map[string]bool)
	for value := 1; ; value++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%w: value %d: %v", ErrBadCache, value, err)
		}
		if value == 1 {
			var probe struct {
				Schema string `json:"schema"`
			}
			// A non-object first value falls through to the row branch,
			// which produces the row-shaped error.
			_ = json.Unmarshal(raw, &probe)
			switch {
			case probe.Schema == CacheSchema:
				continue // header consumed; the remaining values are rows
			case probe.Schema != "":
				return nil, fmt.Errorf("%w: unknown schema %q, want %q or none", ErrBadCache, probe.Schema, CacheSchema)
			}
		}
		var row Row
		if err := json.Unmarshal(raw, &row); err != nil {
			return nil, fmt.Errorf("%w: value %d is not a row: %v", ErrBadCache, value, err)
		}
		if row.ID == "" {
			return nil, fmt.Errorf("%w: value %d has no cell ID", ErrBadCache, value)
		}
		if seen[row.ID] {
			return nil, fmt.Errorf("%w: duplicate cell %q", ErrBadCache, row.ID)
		}
		seen[row.ID] = true
		out = append(out, row)
	}
	return out, nil
}

// DecodeRowsFile reads one row file (see DecodeRows for the accepted
// forms).
func DecodeRowsFile(path string) ([]Row, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadCache, err)
	}
	rows, derr := DecodeRows(f)
	if cerr := f.Close(); derr == nil && cerr != nil {
		derr = fmt.Errorf("%w: close: %v", ErrBadCache, cerr)
	}
	if derr != nil {
		return nil, fmt.Errorf("%s: %w", path, derr)
	}
	return rows, nil
}

// DiffFiles decodes two row files (any form DecodeRows accepts) and joins
// them with Diff — the engine behind `optchain-bench -diff OLD NEW`.
func DiffFiles(oldPath, newPath string, tol Tolerances) (*DiffReport, error) {
	old, err := DecodeRowsFile(oldPath)
	if err != nil {
		return nil, err
	}
	new, err := DecodeRowsFile(newPath)
	if err != nil {
		return nil, err
	}
	return Diff(old, new, tol)
}
