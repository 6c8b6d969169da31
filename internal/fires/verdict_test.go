package fires

import (
	"testing"

	"repro/internal/atpg"
	"repro/internal/fault"
	"repro/internal/gen"
	"repro/internal/learn"
)

// TestUntestableVerdictsNeverDetected is the cross-verdict oracle: no
// fault that TieUntestable, Fires or PODEM calls untestable may be
// detected by a test that a whole-list forbidden-mode Run emitted, each
// test re-simulated from the all-X state with the scalar fault.Sim.
func TestUntestableVerdictsNeverDetected(t *testing.T) {
	for _, name := range []string{"s382", "s953", "s1423"} {
		c := gen.MustBuild(name)
		lr := learn.Learn(c, learn.Options{})
		verdicts := map[string][]fault.Fault{
			"TieUntestable": TieUntestable(c, lr).Untestable,
			"Fires":         Fires(c, lr, Options{UseRelations: true}).Untestable,
		}
		faults, _ := fault.Collapse(c)
		res := atpg.Run(c, atpg.RunOptions{
			Faults: faults,
			ATPG: atpg.Options{
				BacktrackLimit: 30,
				Mode:           atpg.ModeForbidden,
				DB:             lr.DB,
				Ties:           append(append([]learn.Tie{}, lr.CombTies...), lr.SeqTies...),
				FillSeed:       0x7e57,
			},
		})
		for i, f := range res.Faults {
			if res.Status[i] == atpg.StatusUntestable {
				verdicts["PODEM"] = append(verdicts["PODEM"], f)
			}
		}
		if len(res.Tests) == 0 {
			t.Fatalf("%s: setup emitted no tests", name)
		}
		s := fault.NewSim(c)
		detecting := map[fault.Fault]int{}
		for _, untestable := range verdicts {
			for _, f := range untestable {
				detecting[f] = 0
			}
		}
		for _, test := range res.Tests {
			s.LoadSequence(test, nil)
			for f := range detecting {
				if det, _ := s.Detects(f); det {
					detecting[f]++
				}
			}
		}
		for analysis, untestable := range verdicts {
			for _, f := range untestable {
				if n := detecting[f]; n > 0 {
					t.Errorf("%s: %s calls %s untestable, but it is detected by %d of %d tests",
						name, analysis, fault.Name(c, f), n, len(res.Tests))
				}
			}
		}
	}
}
