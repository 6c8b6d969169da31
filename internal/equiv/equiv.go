// Package equiv identifies combinationally equivalent gates by parallel
// random pattern simulation (paper Section 3.1), with learned tied gates
// folded in as constants — the fold is what makes G2 ≡ G4 detectable in the
// paper's Figure 1.
//
// Signature matching only yields candidates; every candidate class is
// verified exactly by exhaustive cone enumeration over its input support
// (bounded), so the equivalences handed to the learner are sound. Classes
// whose support exceeds the bound are dropped rather than trusted, because
// an unsound equivalence would corrupt every relation learned through it.
package equiv

import (
	"sort"

	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/sim"
)

// Options tunes equivalence identification.
type Options struct {
	// Rounds of 64 random patterns for signature computation (default 8).
	Rounds int
	// MaxSupport bounds exhaustive verification (default 14 inputs).
	MaxSupport int
	// MaxClass bounds the size of a candidate class considered for
	// verification (default 32); larger classes are dropped.
	MaxClass int
	// Seed for the deterministic pattern generator.
	Seed uint64
	// IncludeComplement also links gates that are complements of each
	// other (an extension beyond the paper's direct equivalence).
	IncludeComplement bool
}

func (o *Options) defaults() {
	if o.Rounds <= 0 {
		o.Rounds = 8
	}
	if o.MaxSupport <= 0 {
		o.MaxSupport = 14
	}
	if o.MaxClass <= 0 {
		o.MaxClass = 32
	}
	if o.Seed == 0 {
		o.Seed = 0x5eed
	}
}

// Normalized returns the options with unset fields folded to their
// effective defaults: the form consumers that key caches on options
// (internal/store) hash, so an explicit default and the zero value resolve
// to the same artifact without duplicating the default literals elsewhere.
func (o Options) Normalized() Options {
	o.defaults()
	return o
}

// Class is a verified equivalence class: every member equals the
// representative (possibly complemented when Inv is set).
type Class struct {
	Rep     netlist.NodeID
	Members []Member
}

// Member is one gate of a class with its polarity relative to the
// representative.
type Member struct {
	Node netlist.NodeID
	Inv  bool
}

// Result holds verified equivalence classes and the partner map consumed by
// the scheduled simulator.
type Result struct {
	Classes []Class

	// Partners is wired as a star around each representative, so that one
	// known member propagates to the whole class through the simulator's
	// recursive assignment.
	Partners map[netlist.NodeID][]sim.EqPartner
}

// Find identifies verified equivalence classes among combinational gates.
func Find(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, opt Options) *Result {
	opt.defaults()
	return findWith(c, ties, opt, newVerifier(c, ties, opt.MaxSupport).equal)
}

// findWith is Find with defaulted options and the exact check that verifies
// each candidate member against its representative.
func findWith(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, opt Options, equal func(a, b netlist.NodeID, inv bool) bool) *Result {
	ps := sim.NewPatternSim(c)
	r := logic.NewRand64(opt.Seed)

	sig := make([]uint64, c.NumNodes())
	sigInv := make([]uint64, c.NumNodes())
	const prime = 1099511628211
	for i := range sig {
		sig[i] = 14695981039346656037
		sigInv[i] = 14695981039346656037
	}
	for round := 0; round < opt.Rounds; round++ {
		words := ps.Round(r, ties)
		for id := range words {
			sig[id] = (sig[id] ^ words[id]) * prime
			sigInv[id] = (sigInv[id] ^ ^words[id]) * prime
		}
	}

	// Group candidate gates by signature.
	groups := map[uint64][]netlist.NodeID{}
	for id := range c.Nodes {
		n := &c.Nodes[id]
		if n.Kind != netlist.KindGate {
			continue
		}
		if _, tied := ties[netlist.NodeID(id)]; tied {
			continue
		}
		groups[sig[id]] = append(groups[sig[id]], netlist.NodeID(id))
	}

	res := &Result{Partners: map[netlist.NodeID][]sim.EqPartner{}}
	var keys []uint64
	for k, g := range groups {
		if len(g) > 1 {
			keys = append(keys, k)
		}
	}
	// Complement candidates: a gate whose inverted signature matches a
	// group joins it with Inv polarity.
	invJoin := map[uint64][]netlist.NodeID{}
	if opt.IncludeComplement {
		for k := range groups {
			invJoin[k] = nil
		}
		for id := range c.Nodes {
			n := &c.Nodes[id]
			if n.Kind != netlist.KindGate {
				continue
			}
			if _, tied := ties[netlist.NodeID(id)]; tied {
				continue
			}
			if g, ok := groups[sigInv[id]]; ok && len(g) > 0 && sigInv[id] != sig[id] {
				invJoin[sigInv[id]] = append(invJoin[sigInv[id]], netlist.NodeID(id))
				found := false
				for _, kk := range keys {
					if kk == sigInv[id] {
						found = true
						break
					}
				}
				if !found && len(g)+len(invJoin[sigInv[id]]) > 1 {
					keys = append(keys, sigInv[id])
				}
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	seen := make(map[netlist.NodeID]bool)
	for _, k := range keys {
		cand := groups[k]
		inv := invJoin[k]
		if len(cand)+len(inv) > opt.MaxClass || len(cand) == 0 {
			continue
		}
		rep := cand[0]
		if seen[rep] {
			continue
		}
		cls := Class{Rep: rep}
		for _, m := range cand[1:] {
			if seen[m] {
				continue
			}
			if equal(rep, m, false) {
				cls.Members = append(cls.Members, Member{Node: m})
				seen[m] = true
			}
		}
		for _, m := range inv {
			if seen[m] || m == rep {
				continue
			}
			if equal(rep, m, true) {
				cls.Members = append(cls.Members, Member{Node: m, Inv: true})
				seen[m] = true
			}
		}
		if len(cls.Members) == 0 {
			continue
		}
		seen[rep] = true
		res.Classes = append(res.Classes, cls)
		for _, m := range cls.Members {
			res.Partners[cls.Rep] = append(res.Partners[cls.Rep], sim.EqPartner{Node: m.Node, Inv: m.Inv})
			res.Partners[m.Node] = append(res.Partners[m.Node], sim.EqPartner{Node: cls.Rep, Inv: m.Inv})
		}
	}
	return res
}

// verifier performs exact cone-based equivalence checks. Its per-node
// arrays are sized once per Find; visit marks are stamped with a per-check
// epoch, so a check touches only the cone it walks.
type verifier struct {
	c          *netlist.Circuit
	maxSupport int

	tie   []uint8  // per node: untied, tiedZero or tiedOne
	words []uint64 // per node: the node's word in the current block
	mark  []uint32 // per node: the epoch of the last cone that visited it
	epoch uint32

	// The current cone: its pseudo-input support, its gates in
	// topological order, and the tied nodes it reaches.
	support, gates, tied []netlist.NodeID
}

const (
	untied uint8 = iota
	tiedZero
	tiedOne
)

func newVerifier(c *netlist.Circuit, ties map[netlist.NodeID]logic.V, maxSupport int) *verifier {
	v := &verifier{
		c:          c,
		maxSupport: maxSupport,
		tie:        make([]uint8, c.NumNodes()),
		words:      make([]uint64, c.NumNodes()),
		mark:       make([]uint32, c.NumNodes()),
	}
	for n, tv := range ties {
		v.tie[n] = tiedZero
		if tv == logic.One {
			v.tie[n] = tiedOne
		}
	}
	return v
}

// cone collects the pseudo-input support, the topologically ordered gates
// and the tied nodes of the union cone of a and b; it reports false if the
// support exceeds the bound.
func (v *verifier) cone(a, b netlist.NodeID) bool {
	v.epoch++
	if v.epoch == 0 {
		clear(v.mark)
		v.epoch = 1
	}
	v.support, v.gates, v.tied = v.support[:0], v.gates[:0], v.tied[:0]
	return v.walk(a) && v.walk(b)
}

// walk visits n's cone in post order, so gates come out topologically
// ordered.
func (v *verifier) walk(n netlist.NodeID) bool {
	if v.mark[n] == v.epoch {
		return true
	}
	v.mark[n] = v.epoch
	if v.tie[n] != untied {
		v.tied = append(v.tied, n) // constant: not part of the support
		return true
	}
	if v.c.Nodes[n].Kind != netlist.KindGate {
		v.support = append(v.support, n)
		return len(v.support) <= v.maxSupport
	}
	for _, p := range v.c.Fanin(n) {
		if !v.walk(p.Node) {
			return false
		}
	}
	v.gates = append(v.gates, n)
	return true
}

// laneBits[i] holds bit i of the lane index in every lane: the word of
// support input i in any block of 64 assignments, for i below 6.
var laneBits = [6]uint64{
	0xaaaaaaaaaaaaaaaa,
	0xcccccccccccccccc,
	0xf0f0f0f0f0f0f0f0,
	0xff00ff00ff00ff00,
	0xffff0000ffff0000,
	0xffffffff00000000,
}

// equal exhaustively checks a == b (or a == ¬b when inv) over the cone's
// support. It returns false when the support is too large to verify.
func (v *verifier) equal(a, b netlist.NodeID, inv bool) bool {
	if !v.cone(a, b) {
		return false
	}
	for _, t := range v.tied {
		v.words[t] = 0
		if v.tie[t] == tiedOne {
			v.words[t] = ^uint64(0)
		}
	}
	total := uint64(1) << uint(len(v.support))
	for base := uint64(0); base < total; base += logic.W {
		// Lane l of this block carries assignment number base+l; base is
		// a multiple of 64, so the support's low six bits follow the lane
		// index and the others are constant across the block.
		for bit, in := range v.support {
			switch {
			case bit < len(laneBits):
				v.words[in] = laneBits[bit]
			case base>>uint(bit)&1 == 1:
				v.words[in] = ^uint64(0)
			default:
				v.words[in] = 0
			}
		}
		var buf [16]uint64
		for _, id := range v.gates {
			fanin := v.c.Fanin(id)
			vals := buf[:0]
			if cap(vals) < len(fanin) {
				vals = make([]uint64, 0, len(fanin))
			}
			for _, p := range fanin {
				w := v.words[p.Node]
				if p.Inv {
					w = ^w
				}
				vals = append(vals, w)
			}
			v.words[id] = logic.BEvalSlice(v.c.Nodes[id].Op, vals)
		}
		wa, wb := v.words[a], v.words[b]
		if inv {
			wb = ^wb
		}
		// Only lanes below total are meaningful.
		mask := ^uint64(0)
		if total-base < logic.W {
			mask = (uint64(1) << (total - base)) - 1
		}
		if (wa^wb)&mask != 0 {
			return false
		}
	}
	return true
}
