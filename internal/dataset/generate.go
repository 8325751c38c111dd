// Package dataset produces and stores Bitcoin-like transaction streams.
//
// The paper evaluates on the first 10M transactions of the MIT Bitcoin
// dataset (senseable2015-6.mit.edu), which is not redistributable here. This
// package substitutes a synthetic generator calibrated to the TaN-network
// statistics the paper publishes in §IV-A/Fig. 2: power-law in/out degree
// with mean ≈ 2.3, ~90% of in-degrees below 3, ~97% of out-degrees below 10,
// coinbase transactions interleaved at block cadence, and UTXO-consistent
// spend structure with recency-biased (log-uniform age) input selection —
// the temporal locality that transaction-placement strategies exploit.
// A codec (Encode/Decode) lets a real trace extract be substituted.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"optchain/internal/chain"
	"optchain/internal/stats"
	"optchain/internal/txgraph"
)

// Config parameterizes the generator. Zero fields are filled from
// DefaultConfig by Generate. The degree and value calibration behind the
// paper's Fig. 2 statistics is fixed (the constants below); Config holds
// only the stream length, the seed and the community structure the
// `bitcoin` workload's knobs set.
type Config struct {
	// N is the number of transactions to generate.
	N int
	// Seed makes generation reproducible.
	Seed int64

	// Communities models wallet/entity clustering: at any time this many
	// communities are active; each transaction belongs to one and, with
	// probability IntraProb, draws its inputs from the unspent outputs its
	// own community created. Real Bitcoin transaction graphs are strongly
	// clustered by entity — this is the multi-hop relatedness structure
	// that graph-aware placement (Metis, T2S) exploits and that one-hop
	// Greedy cannot see. Setting Communities to 1 disables clustering.
	Communities int
	// IntraProb is the probability an input is drawn from the
	// transaction's own community (default 1.0).
	IntraProb float64

	// HubEvery emits a hub transaction every that many transactions
	// (default 250). Hubs model the high-fan-out payers that dominate the
	// early Bitcoin economy (mining-pool payouts, faucets, exchanges,
	// SatoshiDice): they consolidate many of their own outputs and create a
	// large batch of outputs whose OWNERSHIP is scattered across
	// communities as payments. Recipients later co-spend those payments
	// with their own change — the case where one-hop Greedy must guess
	// while T2S's 1/|Nout| dilution keeps the recipient's lineage at home.
	HubEvery int
	// HubFanout bounds a hub transaction's output count: sampled uniformly
	// in [HubFanout/4, HubFanout] (default 60).
	HubFanout int
}

// The fixed calibration. With it the generated TaN network has mean degree
// ≈ 2.3 and degree tails matching the paper's Fig. 2 within a few percent
// (see the generator tests).
const (
	// coinbaseEvery emits a mining-reward transaction every that many
	// transactions (a block cadence proxy). Additional coinbases are
	// emitted whenever the UTXO pool runs dry, which concentrates them at
	// the start of the stream — mirroring Bitcoin's early history and the
	// paper's Fig. 2c observation.
	coinbaseEvery = 500
	// coinbaseValue is the minted value per coinbase: 50 BTC in satoshi.
	coinbaseValue = 50_0000_0000

	// Input-count mixture: P(1), P(2), and a power-law tail on
	// [3, maxInputs] with exponent inTailExp for the remainder.
	pSingleInput, pDoubleInput = 0.55, 0.34
	inTailExp                  = 1.7
	maxInputs                  = 300

	// Output-count mixture, same shape.
	pSingleOutput, pDoubleOutput = 0.28, 0.48
	outTailExp                   = 2.3
	maxOutputs                   = 1000

	// feePerMille is the fee retained per transaction, in 1/1000 of the
	// input sum.
	feePerMille = 2

	// turnoverEvery retires one community (round-robin) every that many
	// transactions, modelling entity churn.
	turnoverEvery = 2000
)

// DefaultConfig returns the configuration used throughout the benchmarks.
func DefaultConfig() Config {
	return Config{
		N:           100_000,
		Seed:        1,
		Communities: 64,
		IntraProb:   1.0,
		HubEvery:    250,
		HubFanout:   60,
	}
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.N <= 0 {
		c.N = d.N
	}
	if c.Communities <= 0 {
		c.Communities = d.Communities
	}
	if c.IntraProb <= 0 {
		c.IntraProb = d.IntraProb
	}
	if c.HubEvery <= 0 {
		c.HubEvery = d.HubEvery
	}
	if c.HubFanout <= 0 {
		c.HubFanout = d.HubFanout
	}
}

// Validate rejects an IntraProb above 1.
func (c Config) Validate() error {
	if c.IntraProb > 1 {
		return errors.New("dataset: IntraProb exceeds 1")
	}
	return nil
}

// outRef is one unspent output in the generator's pool.
type outRef struct {
	tx      int32
	idx     uint32
	value   int64
	payment bool // created by a hub as a cross-community payment
}

type generator struct {
	cfg     Config
	rng     *rand.Rand
	inTail  *stats.PowerLaw
	outTail *stats.PowerLaw

	pool  []outRef // creation order
	spent []bool   // parallel to pool
	live  int

	// Scratch reused from one transaction or compaction to the next: the
	// inputs step returns (its callers copy them out before the next step),
	// and the buffers maybeCompact swaps the pool into.
	ins        []outRef
	sparePool  []outRef
	spareSpent []bool
	remap      []int

	comms      [][]int // per community: pool indices of outputs it created
	commCursor int     // round-robin turnover position
}

func newGenerator(cfg Config) *generator {
	return &generator{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		inTail:  stats.NewPowerLaw(inTailExp, maxInputs-2),
		outTail: stats.NewPowerLaw(outTailExp, maxOutputs-2),
		comms:   make([][]int, cfg.Communities),
	}
}

// Generate produces a synthetic dataset: a Stream drained through AppendTx.
// Programs reach the generator through the "bitcoin" workload (which
// materializes to the same dataset); only tests call Generate. It stays
// exported because the tests of the root package, core, registry, sim and
// workload build their fixtures with it (a _test.go helper cannot cross
// packages), and TestBitcoinMatchesGenerate pins the workload to it.
func Generate(cfg Config) (*Dataset, error) {
	s, err := NewStream(cfg)
	if err != nil {
		return nil, err
	}
	d := New(s.N())
	var tx Tx
	for s.Next(&tx) {
		if err := d.AppendTx(&tx); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// Stream is the incremental form of Generate: it emits the calibrated
// transaction stream one transaction at a time, with memory proportional to
// the live UTXO set rather than the stream length.
type Stream struct {
	g *generator
	i int
}

// NewStream validates the config and prepares an incremental generator.
func NewStream(cfg Config) (*Stream, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Stream{g: newGenerator(cfg)}, nil
}

// N returns the configured stream length.
func (s *Stream) N() int { return s.g.cfg.N }

// Input references one output of an earlier stream transaction: output slot
// Index of the transaction at stream position Tx.
type Input struct {
	Tx    int
	Index uint32
}

// Tx is one stream transaction, the one shape every source fills: the
// generator Stream, DecodeStream, Dataset.ReadTx and the workload
// scenarios. Placement only needs the stream graph (which parents each
// transaction spends, how many outputs it creates); the simulator
// additionally consumes Value, OutVals and Gap.
type Tx struct {
	// Inputs lists the outputs this transaction spends. Empty means
	// coinbase. Inputs never repeat an outpoint (sources must not
	// double-spend), but several may share the same parent Tx.
	Inputs []Input
	// Outputs is the number of outputs created (>= 1).
	Outputs int
	// Value is the total value of the created outputs.
	Value int64
	// OutVals holds one value per output when the source knows them
	// exactly (a recorded trace may split its value arbitrarily); then
	// Value is their sum. Empty means the SplitValue convention: Value
	// split evenly, the remainder on output 0.
	OutVals []int64
	// Gap scales the inter-arrival time before this transaction relative to
	// the nominal 1/rate spacing. Zero means 1 (nominal); burst scenarios
	// use values < 1 during flash crowds.
	Gap float64
}

// check validates tx as stream transaction i, where outs answers the output
// count of each earlier transaction: every input spends an existing output
// of an earlier transaction, there is at least one output, OutVals is empty
// or holds one value per output, and every value lies in [0, MaxInt64]
// with a sum that does too and equals Value.
func (tx *Tx) check(i int, outs func(int) int) error {
	for _, in := range tx.Inputs {
		if in.Tx < 0 || in.Tx >= i {
			return fmt.Errorf("tx %d references future tx %d", i, in.Tx)
		}
		if int64(in.Index) >= int64(outs(in.Tx)) {
			return fmt.Errorf("tx %d references output %d:%d out of range", i, in.Tx, in.Index)
		}
	}
	if tx.Outputs < 1 {
		return fmt.Errorf("tx %d has zero outputs", i)
	}
	if len(tx.OutVals) == 0 {
		if tx.Value < 0 {
			return fmt.Errorf("tx %d: negative output sum %d", i, tx.Value)
		}
		return nil
	}
	if len(tx.OutVals) != tx.Outputs {
		return fmt.Errorf("tx %d: %d output values for %d outputs", i, len(tx.OutVals), tx.Outputs)
	}
	var sum int64
	for j, v := range tx.OutVals {
		if v < 0 {
			return fmt.Errorf("tx %d: output %d value is negative or above %d", i, j, int64(math.MaxInt64))
		}
		if v > math.MaxInt64-sum {
			return fmt.Errorf("tx %d: output values overflow int64", i)
		}
		sum += v
	}
	if sum != tx.Value {
		return fmt.Errorf("tx %d: Value %d is not the sum %d of its output values", i, tx.Value, sum)
	}
	return nil
}

// Next fills tx with the next transaction in stream order and reports
// whether one was produced (false once N transactions have been emitted).
// The generator's outputs follow the SplitValue convention, so OutVals is
// left empty; Gap is nominal.
func (s *Stream) Next(tx *Tx) bool {
	if s.i >= s.g.cfg.N {
		return false
	}
	ins, nOut, outSum := s.g.step(int32(s.i))
	s.i++
	tx.Inputs = tx.Inputs[:0]
	for _, r := range ins {
		tx.Inputs = append(tx.Inputs, Input{Tx: int(r.tx), Index: r.idx})
	}
	tx.Outputs = nOut
	tx.Value = outSum
	tx.OutVals = tx.OutVals[:0]
	tx.Gap = 1
	return true
}

// step computes transaction i and registers its outputs in the pool.
// Stream.Next copies the returned structure out before it calls step
// again: ins is the generator's own buffer.
func (g *generator) step(i int32) (ins []outRef, nOut int, outSum int64) {
	// Retire one community round-robin to model entity churn; its unspent
	// outputs remain in the global pool.
	if int(i) > 0 && int(i)%turnoverEvery == 0 {
		g.comms[g.commCursor] = nil
		g.commCursor = (g.commCursor + 1) % len(g.comms)
	}
	community := g.rng.Intn(len(g.comms))
	hub := int(i) > 0 && int(i)%g.cfg.HubEvery == 0

	coinbase := g.live == 0 || int(i)%coinbaseEvery == 0
	if !coinbase {
		nIn := g.sampleInputs()
		if hub {
			// Hubs consolidate a batch of their own (or any) outputs.
			nIn = 4 + g.rng.Intn(12)
		}
		if nIn > g.live {
			nIn = g.live
		}
		ins = g.takeInputs(nIn, community)
	}
	var inSum int64
	for _, r := range ins {
		inSum += r.value
	}
	nOut = g.sampleOutputs()
	if hub {
		nOut = g.cfg.HubFanout/4 + g.rng.Intn(g.cfg.HubFanout*3/4+1)
	}
	if coinbase {
		outSum = coinbaseValue
	} else {
		outSum = inSum - inSum*feePerMille/1000
	}
	// Register the new outputs in the pool. Ordinary outputs are owned by
	// the creating community; hub outputs are payments owned by random
	// communities.
	per := outSum / int64(nOut)
	rem := outSum - per*int64(nOut)
	for o := 0; o < nOut; o++ {
		v := per
		if o == 0 {
			v += rem
		}
		g.pool = append(g.pool, outRef{tx: i, idx: uint32(o), value: v, payment: hub})
		g.spent = append(g.spent, false)
		owner := community
		if hub {
			owner = g.rng.Intn(len(g.comms))
		}
		g.comms[owner] = append(g.comms[owner], len(g.pool)-1)
		g.live++
	}
	g.maybeCompact()
	return ins, nOut, outSum
}

func (g *generator) sampleInputs() int {
	u := g.rng.Float64()
	switch {
	case u < pSingleInput:
		return 1
	case u < pSingleInput+pDoubleInput:
		return 2
	default:
		return 2 + g.inTail.Sample(g.rng)
	}
}

func (g *generator) sampleOutputs() int {
	u := g.rng.Float64()
	switch {
	case u < pSingleOutput:
		return 1
	case u < pSingleOutput+pDoubleOutput:
		return 2
	default:
		return 2 + g.outTail.Sample(g.rng)
	}
}

// takeInputs selects n distinct unspent outputs, marking them spent. Each
// input is drawn from the transaction's own community with probability
// IntraProb (recency-biased within the community's outputs), otherwise from
// the global pool with log-uniform age bias (P(age) ∝ 1/age). The
// transaction's own outputs cannot be selected because they are appended
// only after selection.
func (g *generator) takeInputs(n, community int) []outRef {
	out := g.ins[:0]
	spentPayment := false
	for len(out) < n && g.live > 0 {
		i := -1
		if g.rng.Float64() < g.cfg.IntraProb {
			i = g.pickFromCommunity(community)
		}
		if i < 0 {
			i = g.pickUnspent()
		}
		if i < 0 {
			break
		}
		g.spent[i] = true
		g.live--
		spentPayment = spentPayment || g.pool[i].payment
		out = append(out, g.pool[i])
	}
	// Co-spend: wallets cover an amount by combining coins, so a received
	// payment is normally spent together with the wallet's own change. If
	// only payments were consumed, draw one extra own (preferably
	// change-lineage) input. This is the pattern where lineage-aware
	// placement has to out-decide one-hop heuristics.
	if spentPayment && g.live > 0 {
		onlyPayments := true
		for _, r := range out {
			if !r.payment {
				onlyPayments = false
				break
			}
		}
		if onlyPayments {
			if i := g.pickChangeFromCommunity(community); i >= 0 {
				g.spent[i] = true
				g.live--
				out = append(out, g.pool[i])
			}
		}
	}
	g.ins = out
	return out
}

// pickChangeFromCommunity prefers a non-payment (change-lineage) owned
// output, falling back to any owned output.
func (g *generator) pickChangeFromCommunity(c int) int {
	best := -1
	for tries := 0; tries < 6; tries++ {
		i := g.pickFromCommunity(c)
		if i < 0 {
			break
		}
		if !g.pool[i].payment {
			return i
		}
		best = i
	}
	return best
}

// pickFromCommunity draws a recency-biased unspent output owned by the
// community. Interior spent entries are compacted away when the sampling
// keeps landing on them, so the list stays mostly live and the pick almost
// never fails while the community owns anything — a silent fall-through to
// the global pool would defect the community's lineage to a foreign shard.
// Returns -1 when the community owns nothing spendable.
func (g *generator) pickFromCommunity(c int) int {
	for attempt := 0; attempt < 2; attempt++ {
		list := g.comms[c]
		// Prune the (spent) tail so recency bias sees live entries.
		for len(list) > 0 && g.spent[list[len(list)-1]] {
			list = list[:len(list)-1]
		}
		g.comms[c] = list
		if len(list) == 0 {
			return -1
		}
		for tries := 0; tries < 12; tries++ {
			age := stats.LogUniformAge(len(list), g.rng.Float64())
			j := len(list) - age
			if j < 0 {
				j = 0
			}
			if idx := list[j]; !g.spent[idx] {
				return idx
			}
		}
		// Too many dead interior entries: compact (preserving order) and
		// retry once; if the compacted list is still unlucky, scan it.
		kept := list[:0]
		for _, idx := range list {
			if !g.spent[idx] {
				kept = append(kept, idx)
			}
		}
		g.comms[c] = kept
	}
	for j := len(g.comms[c]) - 1; j >= 0; j-- {
		if idx := g.comms[c][j]; !g.spent[idx] {
			return idx
		}
	}
	return -1
}

// pickUnspent draws a pool index with log-uniform age from the end, falling
// back to a bounded scan when the draw lands on spent entries.
func (g *generator) pickUnspent() int {
	n := len(g.pool)
	if n == 0 || g.live == 0 {
		return -1
	}
	for tries := 0; tries < 24; tries++ {
		age := stats.LogUniformAge(n, g.rng.Float64())
		i := n - age
		if i < 0 {
			i = 0
		}
		if !g.spent[i] {
			return i
		}
	}
	// Scan outward from a uniform position; bounded by pool length.
	start := g.rng.Intn(n)
	for off := 0; off < n; off++ {
		if i := start - off; i >= 0 && !g.spent[i] {
			return i
		}
		if i := start + off; i < n && !g.spent[i] {
			return i
		}
	}
	return -1
}

// maybeCompact rebuilds the pool (preserving creation order) once mostly
// spent, keeping memory proportional to the live UTXO set. Community lists
// reference pool indices, so they are remapped in the same pass. The pool
// is copied into the buffer the previous compaction vacated, sized for
// twice the live set (the length at which the next compaction is due), so
// neither the copy nor the appends that follow it allocate while the live
// set holds its size.
func (g *generator) maybeCompact() {
	if len(g.pool) < 4096 || g.live*2 > len(g.pool) {
		return
	}
	if cap(g.remap) < len(g.pool) {
		g.remap = make([]int, len(g.pool))
	}
	remap := g.remap[:len(g.pool)]
	if cap(g.sparePool) < 2*g.live || cap(g.spareSpent) < 2*g.live {
		g.sparePool = make([]outRef, 0, 2*g.live)
		g.spareSpent = make([]bool, 0, 2*g.live)
	}
	newPool := g.sparePool[:0]
	for i, r := range g.pool {
		if g.spent[i] {
			remap[i] = -1
			continue
		}
		remap[i] = len(newPool)
		newPool = append(newPool, r)
	}
	for c, list := range g.comms {
		kept := list[:0]
		for _, idx := range list {
			if remap[idx] >= 0 {
				kept = append(kept, remap[idx])
			}
		}
		g.comms[c] = kept
	}
	newSpent := g.spareSpent[:len(newPool)]
	clear(newSpent)
	g.sparePool, g.pool = g.pool, newPool
	g.spareSpent, g.spent = g.spent, newSpent
}

// Dataset is a columnar, append-only transaction stream. Transaction i has
// chain ID i+1 (IDs are 1-based so that 0 can serve as a "no transaction"
// sentinel in ledger lock bookkeeping).
type Dataset struct {
	inOff  []int64  // n+1
	inTx   []int32  // input transaction indices (0-based)
	inIdx  []uint32 // output index within the input transaction
	outOff []int64  // n+1
	outVal []int64
}

// New returns an empty dataset with a capacity hint of n transactions.
// AppendTx fills it (Generate, Decode, the trace converters and
// internal/workload.Materialize all build through it) and ReadTx reads it
// back.
func New(n int) *Dataset {
	n = max(n, 0)
	return &Dataset{
		inOff:  make([]int64, 1, n+1),
		inTx:   make([]int32, 0, n*2),
		inIdx:  make([]uint32, 0, n*2),
		outOff: make([]int64, 1, n+1),
		outVal: make([]int64, 0, n*2),
	}
}

// AppendTx appends tx as the next transaction. Its outputs take OutVals
// when set and otherwise split Value by the SplitValue convention. It
// refuses a transaction whose inputs do not spend existing outputs of
// earlier transactions, that creates no output, or whose values are
// negative, overflow int64 or do not add up to Value.
func (d *Dataset) AppendTx(tx *Tx) error {
	if err := tx.check(d.Len(), d.NumOutputs); err != nil {
		return fmt.Errorf("dataset: %w", err)
	}
	for _, in := range tx.Inputs {
		d.inTx = append(d.inTx, int32(in.Tx))
		d.inIdx = append(d.inIdx, in.Index)
	}
	d.inOff = append(d.inOff, int64(len(d.inTx)))
	if len(tx.OutVals) > 0 {
		d.outVal = append(d.outVal, tx.OutVals...)
	} else {
		SplitValue(tx.Outputs, tx.Value, func(_ uint32, val int64) {
			d.outVal = append(d.outVal, val)
		})
	}
	d.outOff = append(d.outOff, int64(len(d.outVal)))
	return nil
}

// ReadTx fills tx with transaction i as it was appended: its inputs, its
// exact per-output values in OutVals, their sum in Value, and a nominal
// Gap. The slices are tx's own, reused between calls.
func (d *Dataset) ReadTx(i int, tx *Tx) {
	tx.Inputs = tx.Inputs[:0]
	for j := d.inOff[i]; j < d.inOff[i+1]; j++ {
		tx.Inputs = append(tx.Inputs, Input{Tx: int(d.inTx[j]), Index: d.inIdx[j]})
	}
	tx.OutVals = append(tx.OutVals[:0], d.outVal[d.outOff[i]:d.outOff[i+1]]...)
	tx.Outputs = len(tx.OutVals)
	tx.Value = 0
	for _, v := range tx.OutVals {
		tx.Value += v
	}
	tx.Gap = 1
}

// SplitValue distributes total across n output slots: an even split with
// the remainder on slot 0. This is the single value convention shared by
// the generator, AppendTx, the workload scenario rings, and the streaming
// simulator for every Tx without OutVals — every consumer must see
// identical per-output values whether a stream is materialized or
// simulated live.
func SplitValue(n int, total int64, fn func(idx uint32, val int64)) {
	if n <= 0 {
		return
	}
	per := total / int64(n)
	rem := total - per*int64(n)
	for o := 0; o < n; o++ {
		v := per
		if o == 0 {
			v += rem
		}
		fn(uint32(o), v)
	}
}

// Len returns the number of transactions.
func (d *Dataset) Len() int { return len(d.inOff) - 1 }

// TxID maps a 0-based index to its chain transaction ID.
func (d *Dataset) TxID(i int) chain.TxID { return chain.TxID(i + 1) }

// Index maps a chain transaction ID back to its 0-based index.
func Index(id chain.TxID) int { return int(id) - 1 }

// NumInputs returns the number of inputs (outpoints) of transaction i.
func (d *Dataset) NumInputs(i int) int { return int(d.inOff[i+1] - d.inOff[i]) }

// NumOutputs returns the number of outputs of transaction i.
func (d *Dataset) NumOutputs(i int) int { return int(d.outOff[i+1] - d.outOff[i]) }

// IsCoinbase reports whether transaction i has no inputs.
func (d *Dataset) IsCoinbase(i int) bool { return d.NumInputs(i) == 0 }

// InputTxNodes overwrites buf with the deduplicated input transaction
// indices of transaction i and returns it. The order is first-appearance.
func (d *Dataset) InputTxNodes(i int, buf []txgraph.Node) []txgraph.Node {
	var dedupe txgraph.Deduper
	return dedupe.Compact(append(buf[:0], d.inTx[d.inOff[i]:d.inOff[i+1]]...), 0)
}

// BuildGraph constructs the TaN network of the whole dataset. AddNode
// deduplicates each input list itself.
func (d *Dataset) BuildGraph() (*txgraph.Graph, error) {
	g := txgraph.New(d.Len(), len(d.inTx))
	for i := 0; i < d.Len(); i++ {
		if _, err := g.AddNode(d.inTx[d.inOff[i]:d.inOff[i+1]]); err != nil {
			return nil, fmt.Errorf("dataset: tx %d: %w", i, err)
		}
	}
	return g, nil
}
