// Package ohsnap implements an optimized scaled neural predictor in the
// style of OH-SNAP (Jiménez, ICCD 2011), the most accurate neural
// predictor in the CBP-3 ranking and the paper's primary neural baseline
// (§VI-A). It extends a piecewise-linear predictor with:
//
//   - ragged weight tables: recent history positions, which carry more
//     correlation, get larger tables than distant ones;
//   - per-position scaling coefficients applied to each weight before
//     summation, seeded with an inverse-linear decay and adapted
//     dynamically as the program runs (the "dynamic weight adaptation" the
//     paper cites); and
//   - an adaptive training threshold.
//
// Like all neural predictors with unfiltered histories, its reach is
// bounded by its history length — the weakness the Bias-Free predictor
// attacks.
package ohsnap

import (
	"strconv"

	"bfbp/internal/history"
	"bfbp/internal/rng"
	"bfbp/internal/sim"
	"bfbp/internal/trace"
)

// Segment sizes one ragged block of history positions.
type Segment struct {
	// Positions is the number of consecutive history positions in this
	// block.
	Positions int
	// Rows is the power-of-two table row count for these positions.
	Rows int
}

// Config parameterises the predictor.
type Config struct {
	Name string
	// Segments define the ragged geometry from most-recent history
	// outward; total history length is the sum of Positions.
	Segments []Segment
	// BiasEntries is the power-of-two bias table size.
	BiasEntries int
	// AdaptCoefficients enables dynamic per-position coefficient
	// adaptation.
	AdaptCoefficients bool
}

// Default64KB approximates the 64KB OH-SNAP configuration: 128 positions
// of history with ragged tables (16KB + 24KB + 16KB) plus bias weights.
func Default64KB() Config {
	return Config{
		Segments: []Segment{
			{Positions: 16, Rows: 1 << 10},
			{Positions: 48, Rows: 1 << 9},
			{Positions: 64, Rows: 1 << 8},
		},
		BiasEntries:       1 << 12,
		AdaptCoefficients: true,
	}
}

const (
	coeffShift = 7 // contributions are (weight * coeff) >> coeffShift
	coeffInit  = 1 << coeffShift
	coeffMin   = 24
	coeffMax   = 480
)

// checkpoint captures what a prediction read, so its update trains
// exactly those weights (correct under delayed update). idxs and dirs
// hold one entry per history position.
type checkpoint struct {
	pc   uint64
	sum  int32
	idxs []int32 // flat weight indices per position (-1 = unpopulated)
	dirs []bool
}

// Predictor is an OH-SNAP-style scaled neural predictor.
type Predictor struct {
	cfg      Config
	hlen     int
	segStart []int   // first position of each segment
	segBase  []int32 // offset of each segment's table in weights
	// posBase / posMask resolve history position i to its table row
	// base (segment offset plus the position's row block) and row mask,
	// so compute never walks the segment list.
	posBase  []int32
	posMask  []uint64
	weights  []int8
	bias     []int8
	biasMask uint64
	coeff    []int32

	ring  *history.Ring
	theta int32
	tc    int32
	// pending is an in-order FIFO of in-flight checkpoints: live entries
	// are pending[pendStart:], compacted lazily so steady state never
	// reallocates. free recycles retired checkpoints' idxs/dirs slices.
	pending   []checkpoint
	pendStart int
	free      []checkpoint
	// scratch is the checkpoint for lookups consumed on the spot (the
	// fused batch step, Update without a matching prediction, Explain
	// of a branch not in flight); pcs and taken are compute's gathers
	// of the recent hashed PCs and packed outcome bits.
	scratch checkpoint
	pcs     []uint32
	taken   []uint64
}

// New returns a predictor for the given configuration.
func New(cfg Config) *Predictor {
	if len(cfg.Segments) == 0 {
		panic("ohsnap: need at least one segment")
	}
	if cfg.BiasEntries <= 0 || cfg.BiasEntries&(cfg.BiasEntries-1) != 0 {
		panic("ohsnap: BiasEntries must be a positive power of two")
	}
	p := &Predictor{cfg: cfg, biasMask: uint64(cfg.BiasEntries - 1)}
	total := int32(0)
	pos := 0
	for _, s := range cfg.Segments {
		if s.Positions < 1 {
			panic("ohsnap: segment Positions must be >= 1")
		}
		if s.Rows <= 0 || s.Rows&(s.Rows-1) != 0 {
			panic("ohsnap: segment Rows must be a positive power of two")
		}
		p.segStart = append(p.segStart, pos)
		p.segBase = append(p.segBase, total)
		for i := 0; i < s.Positions; i++ {
			p.posBase = append(p.posBase, total+int32(i*s.Rows))
			p.posMask = append(p.posMask, uint64(s.Rows-1))
		}
		total += int32(s.Rows * s.Positions)
		pos += s.Positions
	}
	p.hlen = pos
	p.scratch = p.newCheckpoint(0)
	p.pcs = make([]uint32, p.hlen)
	p.taken = make([]uint64, (p.hlen+63)/64)
	p.weights = make([]int8, total)
	p.bias = make([]int8, cfg.BiasEntries)
	p.coeff = make([]int32, p.hlen)
	for i := range p.coeff {
		// Inverse-linear decay: recent positions count fully, distant
		// ones are discounted, matching the analog-summation scaling of
		// SNAP-class predictors.
		p.coeff[i] = int32(coeffInit * 8 / (8 + i/4))
		if p.coeff[i] < coeffMin {
			p.coeff[i] = coeffMin
		}
	}
	ringCap := 1
	for ringCap < p.hlen+2 {
		ringCap <<= 1
	}
	p.ring = history.NewRing(ringCap)
	p.theta = int32(2.14*float64(p.hlen) + 20.58)
	return p
}

// Name implements sim.Predictor.
func (p *Predictor) Name() string {
	if p.cfg.Name != "" {
		return p.cfg.Name
	}
	return "oh-snap"
}

// newCheckpoint returns a checkpoint for pc with hlen-long idxs/dirs,
// reusing a retired checkpoint's slices when one is free.
func (p *Predictor) newCheckpoint(pc uint64) checkpoint {
	if k := len(p.free); k > 0 {
		cp := p.free[k-1]
		p.free = p.free[:k-1]
		cp.pc = pc
		return cp
	}
	return checkpoint{pc: pc, idxs: make([]int32, p.hlen), dirs: make([]bool, p.hlen)}
}

// compute is the adder tree: it fills cp.idxs/cp.dirs from the current
// history and sets cp.sum, the coefficient-scaled weighted sum. Every
// prediction, fresh lookup and explanation goes through it.
func (p *Predictor) compute(cp *checkpoint) {
	pc := cp.pc
	sum := int32(p.bias[(pc>>2)&p.biasMask]) * coeffInit >> coeffShift
	pch := rng.Hash64(pc >> 2)
	n := min(p.ring.Len(), p.hlen)
	pcs, idxs, dirs := p.pcs[:n], cp.idxs[:n], cp.dirs[:n]
	p.ring.FillRecentPCs(pcs)
	p.ring.FillRecentTaken(p.taken)
	base, mask, coeff := p.posBase[:n], p.posMask[:n], p.coeff[:n]
	weights, taken := p.weights, p.taken
	for i, h := range pcs {
		idx := base[i] + int32(rng.Hash64(pch^uint64(h)<<1)&mask[i])
		idxs[i] = idx
		t := int32(taken[i>>6]>>uint(i&63)) & 1
		dirs[i] = t != 0
		// m is 0 for a taken history bit and -1 for a not-taken one, so
		// (c^m)-m adds c or -c without a branch.
		m := t - 1
		c := int32(weights[idx]) * coeff[i] >> coeffShift
		sum += (c ^ m) - m
	}
	for i := n; i < p.hlen; i++ {
		cp.idxs[i] = -1
	}
	cp.sum = sum
}

// Predict implements sim.Predictor.
func (p *Predictor) Predict(pc uint64) bool {
	cp := p.newCheckpoint(pc)
	p.compute(&cp)
	// Compact the FIFO's popped prefix before append would grow it.
	if len(p.pending) == cap(p.pending) && p.pendStart > 0 {
		n := copy(p.pending, p.pending[p.pendStart:])
		p.pending = p.pending[:n]
		p.pendStart = 0
	}
	p.pending = append(p.pending, cp)
	return cp.sum >= 0
}

// Update implements sim.Predictor.
func (p *Predictor) Update(pc uint64, taken bool, target uint64) {
	if p.pendStart < len(p.pending) && p.pending[p.pendStart].pc == pc {
		cp := p.pending[p.pendStart]
		p.pendStart++
		if p.pendStart == len(p.pending) {
			p.pending = p.pending[:0]
			p.pendStart = 0
		}
		p.retire(&cp, taken)
		p.free = append(p.free, cp)
		return
	}
	p.scratch.pc = pc
	p.compute(&p.scratch)
	p.retire(&p.scratch, taken)
}

// retire trains cp with the resolved outcome and pushes the branch into
// the history.
func (p *Predictor) retire(cp *checkpoint, taken bool) {
	p.train(cp, taken)
	p.ring.Push(history.Entry{HashedPC: uint32(rng.Hash64(cp.pc >> 2)), Taken: taken})
}

// SimulateBatch implements sim.BatchSimulator: each record runs a fused
// compute, decide, train and history push on the scratch checkpoint,
// bit-exact with Predict+Update per record. Falls back to the canonical
// pair while checkpoints are in flight (a delayed-update queue drained
// mid-run), since Update would then train the oldest of them.
func (p *Predictor) SimulateBatch(recs []trace.Record, preds []bool) {
	if p.pendStart < len(p.pending) {
		for i := range recs {
			preds[i] = p.Predict(recs[i].PC)
			p.Update(recs[i].PC, recs[i].Taken, recs[i].Target)
		}
		return
	}
	cp := &p.scratch
	for i := range recs {
		cp.pc = recs[i].PC
		p.compute(cp)
		preds[i] = cp.sum >= 0
		p.retire(cp, recs[i].Taken)
	}
}

// train applies the perceptron rule to the weights cp read, in position
// order: coefficient adaptation reads each weight just after its update.
func (p *Predictor) train(cp *checkpoint, taken bool) {
	pred := cp.sum >= 0
	mispred := pred != taken
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	if !mispred && mag > p.theta {
		return
	}
	bi := (cp.pc >> 2) & p.biasMask
	p.bias[bi] = satUpdate(p.bias[bi], taken)
	for i, idx := range cp.idxs {
		if idx < 0 {
			continue
		}
		agree := taken == cp.dirs[i]
		p.weights[idx] = satUpdate(p.weights[idx], agree)
		if p.cfg.AdaptCoefficients {
			// Dynamic coefficient adaptation: a position whose stored
			// weight confidently pointed toward the actual outcome gains
			// influence; one that pointed away loses it. The contribution
			// sign is sign(w) when the history bit was taken and -sign(w)
			// otherwise, so it was correct exactly when (w > 0) == agree.
			w := p.weights[idx]
			if w > 8 || w < -8 {
				if (w > 0) == agree {
					if p.coeff[i] < coeffMax {
						p.coeff[i]++
					}
				} else if p.coeff[i] > coeffMin {
					p.coeff[i]--
				}
			}
		}
	}
	// Adaptive threshold.
	if mispred {
		p.tc++
		if p.tc >= 64 {
			p.theta++
			p.tc = 0
		}
	} else if mag <= p.theta {
		p.tc--
		if p.tc <= -64 {
			if p.theta > 1 {
				p.theta--
			}
			p.tc = 0
		}
	}
}

func satUpdate(w int8, up bool) int8 {
	if up {
		if w < 127 {
			return w + 1
		}
		return w
	}
	if w > -128 {
		return w - 1
	}
	return w
}

// HistoryLength returns the total history positions tracked.
func (p *Predictor) HistoryLength() int { return p.hlen }

// explainTopWeights is the number of contributions Explain reports.
const explainTopWeights = 8

// Explain implements sim.Explainer: the scaled adder-tree sum against
// theta, with the largest signed scaled contributions (position 0 is the
// bias weight, position i the i-th most recent branch; each contribution
// is the coefficient-scaled weight the sum actually used).
func (p *Predictor) Explain(pc uint64) sim.Provenance {
	var cp *checkpoint
	for j := len(p.pending) - 1; j >= p.pendStart; j-- {
		if p.pending[j].pc == pc {
			cp = &p.pending[j]
			break
		}
	}
	if cp == nil {
		cp = &p.scratch
		cp.pc = pc
		p.compute(cp)
	}
	ws := make([]sim.WeightContrib, 0, len(cp.idxs)+1)
	ws = append(ws, sim.WeightContrib{
		Position: 0,
		Weight:   int32(p.bias[(pc>>2)&p.biasMask]) * coeffInit >> coeffShift,
	})
	for i, idx := range cp.idxs {
		if idx < 0 {
			continue
		}
		contrib := int32(p.weights[idx]) * p.coeff[i] >> coeffShift
		if !cp.dirs[i] {
			contrib = -contrib
		}
		ws = append(ws, sim.WeightContrib{Position: i + 1, Weight: contrib})
	}
	mag := cp.sum
	if mag < 0 {
		mag = -mag
	}
	return sim.Provenance{
		Predictor:  p.Name(),
		Component:  "adder",
		Prediction: cp.sum >= 0,
		Confidence: mag,
		Threshold:  p.theta,
		TopWeights: sim.TopWeightContribs(ws, explainTopWeights),
	}
}

// Coefficient exposes a position's scaling coefficient (for tests).
func (p *Predictor) Coefficient(i int) int32 { return p.coeff[i] }

// Storage implements sim.StorageAccounter.
func (p *Predictor) Storage() sim.Breakdown {
	return sim.Breakdown{
		Name: p.Name(),
		Components: []sim.Component{
			{Name: "ragged correlating weights", Bits: 8 * len(p.weights)},
			{Name: "bias weights", Bits: 8 * len(p.bias)},
			{Name: "scaling coefficients (9-bit)", Bits: 9 * len(p.coeff)},
			{Name: "global history ring", Bits: p.ring.Cap() * 15},
		},
	}
}

// ProbeState implements sim.StateProbe: one weight profile per ragged
// segment (HistLen reports the segment's deepest history position), the
// bias table, and the scaling coefficients (saturated = pinned at
// coeffMin or coeffMax, the dynamic-adaptation clamps).
func (p *Predictor) ProbeState() sim.TableStats {
	ts := sim.TableStats{Predictor: p.Name()}
	for s, seg := range p.cfg.Segments {
		block := p.weights[p.segBase[s] : int(p.segBase[s])+seg.Rows*seg.Positions]
		ts.Weights = append(ts.Weights, sim.WeightArrayStats(
			s, "seg"+strconv.Itoa(s), p.segStart[s]+seg.Positions, block, -128, 127))
	}
	ts.Weights = append(ts.Weights,
		sim.WeightArrayStats(len(p.cfg.Segments), "bias", 0, p.bias, -128, 127))
	cw := sim.WeightStats{
		Bank: len(p.cfg.Segments) + 1, Name: "coeff", Weights: len(p.coeff), Max: coeffMax,
	}
	for _, c := range p.coeff {
		if c != 0 {
			cw.Live++
		}
		if c == coeffMin || c == coeffMax {
			cw.Saturated++
		}
		if c < 0 {
			cw.L1 -= int64(c)
		} else {
			cw.L1 += int64(c)
		}
	}
	ts.Weights = append(ts.Weights, cw)
	return ts
}

var (
	_ sim.Predictor        = (*Predictor)(nil)
	_ sim.BatchSimulator   = (*Predictor)(nil)
	_ sim.StorageAccounter = (*Predictor)(nil)
	_ sim.Explainer        = (*Predictor)(nil)
	_ sim.StateProbe       = (*Predictor)(nil)
)
