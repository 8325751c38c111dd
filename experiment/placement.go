package experiment

import (
	"context"
	"fmt"
	"strings"

	"optchain/internal/core"
	"optchain/internal/dataset"
	"optchain/internal/placement"
	"optchain/internal/registry"
	"optchain/internal/txgraph"
)

// newPlacementStrategy builds one freshly initialized offline strategy for
// a placement cell through the open registry, so every cell owns its own
// state and cells run concurrently. Offline replay knows the whole stream:
// out-degrees come from the materialized dataset, and Metis gets its
// partition.
func (r *Runner) newPlacementStrategy(c Cell, n int, d *dataset.Dataset) (placement.Placer, error) {
	sc := registry.StrategyContext{
		K:         c.Shards,
		N:         n,
		Alpha:     c.Alpha,
		OutCounts: func(v txgraph.Node) int { return d.NumOutputs(int(v)) },
	}
	if strings.EqualFold(c.Strategy, "Metis") {
		part, err := r.partition(n, c.Shards, c.Workload)
		if err != nil {
			return nil, err
		}
		sc.MetisPart = part
	}
	return registry.NewStrategy(c.Strategy, sc)
}

// crossFraction streams the dataset through a placer, counting cross-TXs
// from index `from` onward. The context is polled every few thousand
// transactions so a cancelled sweep abandons the replay promptly instead
// of finishing a multi-hundred-k stream.
func crossFraction(ctx context.Context, d *dataset.Dataset, p placement.Placer, from int) (placement.CrossCounter, error) {
	cc := placement.CrossCounter{}
	var buf []txgraph.Node
	for i := 0; i < d.Len(); i++ {
		if i&8191 == 0 {
			if err := ctx.Err(); err != nil {
				return cc, err
			}
		}
		buf = d.InputTxNodes(i, buf)
		s := p.Place(txgraph.Node(i), buf)
		if i >= from {
			cc.Observe(p.Assignment(), buf, s)
		}
	}
	return cc, nil
}

// warmPlacer replays an offline partition for the first `warm`
// transactions, then hands control to the wrapped strategy — the Table II
// setting ("the system already places a certain amount of transactions").
type warmPlacer struct {
	placement.Placer
	part []int32
	warm int
}

// Place implements placement.Placer.
func (w *warmPlacer) Place(u txgraph.Node, inputs []txgraph.Node) int {
	if int(u) >= w.warm {
		return w.Placer.Place(u, inputs)
	}
	s := int(w.part[u])
	// T2S-based strategies must also thread the replayed decisions through
	// their score index.
	if p, ok := w.Placer.(*core.OptChainPlacer); ok {
		p.Scores().Prepare(u, inputs)
		p.Scores().Commit(u, s)
	}
	w.Placer.Assignment().Place(u, s)
	return s
}

// runPlacementCell executes one offline placement-replay cell: the whole
// stream placed into empty shards (optionally after a Metis warm start),
// counting cross-shard transactions — Tables I-II and the α ablation.
// The context is checked between phases and during the replay; the
// singleflight dataset/partition builds themselves run to completion (a
// second caller may need the artifact), so cancellation latency is
// bounded by one build, not by the replay.
func (r *Runner) runPlacementCell(ctx context.Context, c Cell) (Row, error) {
	n := c.Txs
	if n == 0 {
		n = r.p.TableN
	}
	if c.Warm >= n {
		// A warm start covering the whole stream would leave nothing to
		// measure; the row would report a misleading 0% cross fraction.
		return Row{}, fmt.Errorf("%w: warm start %d covers the whole %d-tx stream", ErrBadSweep, c.Warm, n)
	}
	if err := ctx.Err(); err != nil {
		return Row{}, err
	}
	d, err := r.dataset(n, c.Shards, c.Workload)
	if err != nil {
		return Row{}, err
	}
	p, err := r.newPlacementStrategy(c, n, d)
	if err != nil {
		return Row{}, err
	}
	wl := c.Workload
	if wl == "" {
		wl = r.p.WorkloadLabel()
	}
	from := 0
	if c.Warm > 0 {
		if err := ctx.Err(); err != nil {
			return Row{}, err
		}
		part, err := r.partition(n, c.Shards, c.Workload)
		if err != nil {
			return Row{}, err
		}
		p = &warmPlacer{Placer: p, part: part, warm: c.Warm}
		from = c.Warm
	}
	cc, err := crossFraction(ctx, d, p, from)
	if err != nil {
		return Row{}, err
	}
	return Row{
		Kind:          KindPlacement,
		Strategy:      c.Strategy,
		Shards:        c.Shards,
		Workload:      wl,
		Txs:           n,
		Tag:           c.Tag,
		CrossFraction: cc.Fraction(),
		Cross:         cc.Cross,
		MaxShardShare: p.Assignment().MaxShare(),
	}, nil
}
