package fault

import (
	"math/bits"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// PackedSim is the word-level bit-parallel fault simulator (PPSFP style):
// faults are grouped into batches of up to logic.W (64), and each batch
// simulates all of its faulty machines simultaneously — lane i of every
// logic.PV node word carries machine i, with the batch's fault sites forced
// through per-lane masks. Detection is the diff of the faulty primary-output
// planes against the good machine's broadcast planes, so one frame of one
// batch replaces up to 64 scalar faulty-machine passes.
//
// Detection outcomes are bit-identical to the event-driven scalar Sim for
// any batch split (TestPackedFaultSimEquivalence): per-lane semantics of the
// packed kernel equal FuncSim, detection per lane is independent of every
// other lane, and the conservative rule "good known, faulty known,
// different" is evaluated by the same comparison, word-wide.
//
// A PackedSim is not safe for concurrent use; ParallelSim partitions
// batches over a pool of clones.
type PackedSim struct {
	c   *netlist.Circuit
	eng *sim.PackedEngine

	// poNodes are the nodes observed by the primary outputs (pin
	// inversions cancel in the good/faulty comparison). Immutable, shared
	// across clones.
	poNodes []netlist.NodeID

	// Loaded sequence: the outer slices are private to each simulator, the
	// per-frame planes are shared read-only across clones (adoptSequence).
	piPlanes  [][]logic.PV // PI planes per frame, broadcast
	goodPO    [][]logic.PV // good PO-node planes per frame, broadcast
	initState []logic.PV   // broadcast initial sequential state
	frames    int

	// batch is the lane-group size, logic.W except in tests that exercise
	// partial-batch handling at every split.
	batch int
}

// NewPackedSim returns a packed fault simulator for c.
func NewPackedSim(c *netlist.Circuit) *PackedSim {
	poNodes := make([]netlist.NodeID, len(c.POs))
	for i, po := range c.POs {
		poNodes[i] = po.Pin.Node
	}
	return &PackedSim{
		c:       c,
		eng:     sim.NewPackedEngine(c),
		poNodes: poNodes,
		batch:   logic.W,
	}
}

// Clone returns an independent packed simulator sharing the immutable
// structure (circuit, compiled program, PO index). The clone starts with no
// loaded sequence.
func (p *PackedSim) Clone() *PackedSim {
	return &PackedSim{
		c:       p.c,
		eng:     p.eng.Clone(),
		poNodes: p.poNodes,
		batch:   p.batch,
	}
}

// adoptSequence points p's sequence planes at the sequence loaded into src.
// The per-frame planes are shared read-only; the outer slices are copied,
// so a later LoadSequence on src cannot tear what p observes.
func (p *PackedSim) adoptSequence(src *PackedSim) {
	p.piPlanes = append(p.piPlanes[:0], src.piPlanes...)
	p.goodPO = append(p.goodPO[:0], src.goodPO...)
	p.initState = src.initState
	p.frames = src.frames
}

// LoadSequence simulates the good machine once over the vectors (PI values
// per frame, nil init = all X) through the packed kernel — all 64 lanes
// broadcast — and caches the PI planes and good primary-output planes every
// batch reuses.
func (p *PackedSim) LoadSequence(vectors [][]logic.V, init []logic.V) {
	e := p.eng
	e.ClearForces()
	e.ResetBroadcast(init)
	p.initState = append([]logic.PV(nil), e.State()...)
	p.frames = len(vectors)
	p.piPlanes = p.piPlanes[:0]
	p.goodPO = p.goodPO[:0]
	for _, vec := range vectors {
		// Index vec over every PI so a ragged frame fails loudly, exactly
		// like the scalar good-machine pass.
		plane := make([]logic.PV, len(p.c.PIs))
		for i := range plane {
			plane[i] = logic.PVConst(vec[i])
		}
		e.Step(plane)
		good := make([]logic.PV, len(p.poNodes))
		for j, n := range p.poNodes {
			good[j] = e.Value(n)
		}
		p.piPlanes = append(p.piPlanes, plane)
		p.goodPO = append(p.goodPO, good)
	}
}

// Frames returns the number of loaded frames.
func (p *PackedSim) Frames() int { return p.frames }

// detectBatch simulates faults[lo:hi] (at most logic.W of them) in one
// packed pass and fills out[lo:hi] — the shard primitive underneath
// DetectAll and ParallelSim.Detect.
func (p *PackedSim) detectBatch(out []Detection, faults []Fault, lo, hi int) {
	n := hi - lo
	active := ^uint64(0)
	if n < logic.W {
		active = 1<<uint(n) - 1
	}
	e := p.eng
	e.ClearForces()
	for i := lo; i < hi; i++ {
		e.Force(faults[i].Node, faults[i].Stuck, 1<<uint(i-lo))
	}
	e.Reset(p.initState)

	var detected uint64
	var frameOf [logic.W]int
	for t := 0; t < p.frames; t++ {
		e.Step(p.piPlanes[t])
		var diff uint64
		good := p.goodPO[t]
		for j, po := range p.poNodes {
			diff |= e.Value(po).DiffKnown(good[j])
		}
		if newly := diff & active &^ detected; newly != 0 {
			detected |= newly
			for m := newly; m != 0; m &= m - 1 {
				frameOf[bits.TrailingZeros64(m)] = t
			}
			if detected == active {
				break // fast path: every lane of the batch has detected
			}
		}
	}
	e.ClearForces()

	for k := 0; k < n; k++ {
		if detected&(1<<uint(k)) != 0 {
			out[lo+k] = Detection{Detected: true, Frame: frameOf[k]}
		} else {
			out[lo+k] = Detection{Detected: false, Frame: -1}
		}
	}
}

// numBatches returns the batch count for a fault list of length n.
func (p *PackedSim) numBatches(n int) int { return (n + p.batch - 1) / p.batch }

// batchBounds returns the fault-list range of batch k.
func (p *PackedSim) batchBounds(k, n int) (int, int) {
	lo := k * p.batch
	hi := lo + p.batch
	if hi > n {
		hi = n
	}
	return lo, hi
}

// DetectAll simulates every fault against the loaded sequence, 64 machines
// per word, and returns the per-fault outcomes in input order —
// bit-identical to Sim.DetectAll.
func (p *PackedSim) DetectAll(faults []Fault) []Detection {
	out := make([]Detection, len(faults))
	for k := 0; k < p.numBatches(len(faults)); k++ {
		lo, hi := p.batchBounds(k, len(faults))
		p.detectBatch(out, faults, lo, hi)
	}
	return out
}
