package gen

import (
	"fmt"

	"repro/internal/netlist"
)

// Entry describes one benchmark circuit of the paper's evaluation and how
// its stand-in is produced.
type Entry struct {
	Name  string
	FFs   int // paper's FF count (Table 3)
	Gates int // paper's gate count (Table 3)

	Retimed    bool // one of the four retimed circuits
	Industrial bool // one of the three industrial circuits

	// Paper-reported results, printed in parentheses beside the measured
	// ones in Table 3 (internal/harness).
	PaperFFFF   int     // Table 3 "FF-FF" relations
	PaperGateFF int     // Table 3 "Gate-FF" relations
	PaperCPU    float64 // Table 3 CPU seconds (167 MHz Sun Ultra 1)
}

// Suite lists the 29 circuits of the paper's Table 3 in paper order.
var Suite = []Entry{
	{Name: "s382", FFs: 21, Gates: 158, PaperFFFF: 9, PaperGateFF: 37, PaperCPU: 0.06},
	{Name: "s386", FFs: 6, Gates: 159, PaperFFFF: 8, PaperGateFF: 135, PaperCPU: 0.04},
	{Name: "s400", FFs: 21, Gates: 164, PaperFFFF: 12, PaperGateFF: 47, PaperCPU: 0.07},
	{Name: "s444", FFs: 21, Gates: 181, PaperFFFF: 11, PaperGateFF: 69, PaperCPU: 0.08},
	{Name: "s641", FFs: 19, Gates: 377, PaperFFFF: 36, PaperGateFF: 197, PaperCPU: 0.04},
	{Name: "s713", FFs: 19, Gates: 393, PaperFFFF: 36, PaperGateFF: 216, PaperCPU: 0.06},
	{Name: "s953", FFs: 29, Gates: 424, PaperFFFF: 145, PaperGateFF: 1870, PaperCPU: 0.78},
	{Name: "s967", FFs: 29, Gates: 395, PaperFFFF: 126, PaperGateFF: 1437, PaperCPU: 0.43},
	{Name: "s1196", FFs: 18, Gates: 529, PaperFFFF: 8, PaperGateFF: 44, PaperCPU: 0.07},
	{Name: "s1238", FFs: 18, Gates: 508, PaperFFFF: 9, PaperGateFF: 48, PaperCPU: 0.07},
	{Name: "s1269", FFs: 37, Gates: 569, PaperFFFF: 30, PaperGateFF: 232, PaperCPU: 0.06},
	{Name: "s1423", FFs: 74, Gates: 657, PaperFFFF: 4, PaperGateFF: 251, PaperCPU: 0.16},
	{Name: "s3330", FFs: 132, Gates: 1789, PaperFFFF: 367, PaperGateFF: 1764, PaperCPU: 1.30},
	{Name: "s3384", FFs: 183, Gates: 1685, PaperFFFF: 31, PaperGateFF: 48, PaperCPU: 0.19},
	{Name: "s4863", FFs: 104, Gates: 2342, PaperFFFF: 256, PaperGateFF: 17398, PaperCPU: 4.15},
	{Name: "s5378", FFs: 179, Gates: 2779, PaperFFFF: 250, PaperGateFF: 2233, PaperCPU: 6.42},
	{Name: "s6669", FFs: 239, Gates: 3080, PaperFFFF: 24, PaperGateFF: 1603, PaperCPU: 0.39},
	{Name: "s9234", FFs: 228, Gates: 5597, PaperFFFF: 416, PaperGateFF: 7321, PaperCPU: 4.38},
	{Name: "s13207", FFs: 638, Gates: 7951, PaperFFFF: 1566, PaperGateFF: 35093, PaperCPU: 23.08},
	{Name: "s15850", FFs: 597, Gates: 9772, PaperFFFF: 1516, PaperGateFF: 29378, PaperCPU: 42.04},
	{Name: "s38417", FFs: 1636, Gates: 22179, PaperFFFF: 1554, PaperGateFF: 46981, PaperCPU: 30.24},
	{Name: "s38584", FFs: 1452, Gates: 19253, PaperFFFF: 2320, PaperGateFF: 32372, PaperCPU: 41.93},
	{Name: "s510jcsrre", FFs: 26, Gates: 243, Retimed: true, PaperFFFF: 127, PaperGateFF: 891, PaperCPU: 0.10},
	{Name: "s510josrre", FFs: 28, Gates: 243, Retimed: true, PaperFFFF: 50, PaperGateFF: 484, PaperCPU: 0.07},
	{Name: "s832jcsrre", FFs: 27, Gates: 195, Retimed: true, PaperFFFF: 125, PaperGateFF: 743, PaperCPU: 0.11},
	{Name: "scfjisdre", FFs: 20, Gates: 764, Retimed: true, PaperFFFF: 22, PaperGateFF: 1980, PaperCPU: 0.56},
	{Name: "indust1", FFs: 460, Gates: 8693, Industrial: true, PaperFFFF: 118, PaperGateFF: 6774, PaperCPU: 2.74},
	{Name: "indust2", FFs: 7068, Gates: 63156, Industrial: true, PaperFFFF: 2069, PaperGateFF: 36397, PaperCPU: 24.31},
	{Name: "indust3", FFs: 15689, Gates: 681595, Industrial: true, PaperFFFF: 8016, PaperGateFF: 186930, PaperCPU: 403.30},
}

// SuiteNames lists the suite circuit names in paper order.
func SuiteNames() []string {
	out := make([]string, len(Suite))
	for i, e := range Suite {
		out[i] = e.Name
	}
	return out
}

// Lookup returns the suite entry with the given name.
func Lookup(name string) (Entry, bool) {
	for _, e := range Suite {
		if e.Name == name {
			return e, true
		}
	}
	return Entry{}, false
}

// Build produces the stand-in circuit for a suite entry: a plain synthetic
// circuit for ISCAS-style names, a base circuit run through backward
// retiming for the retimed names, and a multi-domain partial-set/reset
// circuit for the industrial names. Flip-flop and gate counts match the
// entry exactly.
func Build(e Entry) *netlist.Circuit {
	seed := nameSeed(e.Name)
	switch {
	case e.Retimed:
		// Retiming moves add one flip-flop each (arity-2 gates only), and
		// roughly one candidate exists per base flip-flop, so the base
		// carries a margin over the moves needed.
		base := e.FFs*3/5 + 2
		if base < 4 {
			base = 4
		}
		moves := e.FFs - base
		c := Synth(Spec{
			Name:          e.Name,
			FFs:           base,
			Gates:         e.Gates,
			Seed:          seed,
			SelfLoopPct:   40, // sticky bits make the invalid states bite
			DriverCtrlPct: 85, // heavily correlated state
		})
		c = Retime(c, moves, seed^0x5e711e)
		return c
	case e.Industrial:
		// Industrial designs are weakly correlated (the paper's indust2
		// learns ~2k FF-FF relations over 7k flip-flops); keep the
		// control bias low or the relation count explodes quadratically.
		return Synth(Spec{
			Name:          e.Name,
			FFs:           e.FFs,
			Gates:         e.Gates,
			Seed:          seed,
			Domains:       4,
			SetResetPct:   12,
			MultiPorts:    e.FFs / 200,
			DriverCtrlPct: 5,
			SelfLoopPct:   5,
			FFBiasPct:     3,
		})
	default:
		return Synth(Spec{Name: e.Name, FFs: e.FFs, Gates: e.Gates, Seed: seed})
	}
}

// MustBuild builds the named suite circuit.
func MustBuild(name string) *netlist.Circuit {
	e, ok := Lookup(name)
	if !ok {
		panic(fmt.Sprintf("gen: unknown suite circuit %q", name))
	}
	return Build(e)
}

// nameSeed derives a stable seed from a circuit name.
func nameSeed(name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	if h == 0 {
		h = 1
	}
	return h
}
