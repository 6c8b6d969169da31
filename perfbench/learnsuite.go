package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/imply"
	"repro/internal/learn"
	"repro/internal/netlist"
	"repro/internal/obs"
)

// learnSuite is the learn-suite workload: learn.Learn → Snapshot.Serialize
// → imply.LoadSnapshot on seeded variants of s5378 and s9234 and of the
// retimed, non-resettable scfjisdre and s510jcsrre. The learning phases
// and the snapshot codec do all the work; ATPG does none.
type learnSuite struct {
	workers  int
	inputs   []input
	circuits []*netlist.Circuit
	want     []snapshotDigest // from the first pass
}

// snapshotDigest identifies one circuit's learning outcome.
type snapshotDigest struct {
	relations int
	sha       [sha256.Size]byte
}

func (w *learnSuite) setup(opt options) error {
	w.workers = opt.workers
	names := []string{"s5378", "s9234", "scfjisdre", "s510jcsrre"}
	if opt.smoke {
		names = []string{"figure2", "s382"}
	}
	for _, n := range names {
		vs, err := variants(n, opt.seed, 1)
		if err != nil {
			return err
		}
		c, err := vs[0].parse()
		if err != nil {
			return err
		}
		w.inputs = append(w.inputs, vs[0])
		w.circuits = append(w.circuits, c)
	}
	return nil
}

func (w *learnSuite) close() {}

func (w *learnSuite) run(ck *checker, traced bool) (*pass, error) {
	p := &pass{values: map[string]float64{}}
	if traced {
		p.spans = newSpanAgg()
	}
	var got []snapshotDigest
	for i, c := range w.circuits {
		name := w.inputs[i].name
		var tr *obs.Trace
		if traced {
			tr = obs.NewTrace(name, "op")
		}
		root := tr.Root()
		var ms0, ms1 runtime.MemStats
		c0, t0 := cpuTime(), time.Now()

		sp := root.Start("learn")
		if traced {
			runtime.ReadMemStats(&ms0)
		}
		lr := learn.Learn(c, learn.Options{Parallelism: w.workers, Span: sp})
		if traced {
			runtime.ReadMemStats(&ms1)
			p.values["learn.alloc_mb"] += float64(ms1.TotalAlloc-ms0.TotalAlloc) / (1 << 20)
		}
		sp.End()
		var buf bytes.Buffer
		sp = root.Start("serialize")
		err := lr.DB.Serialize(&buf)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("serialize %s: %w", name, err)
		}
		sp = root.Start("load")
		snap, err := imply.LoadSnapshot(c, bytes.NewReader(buf.Bytes()))
		sp.End()
		root.End()
		p.wall += time.Since(t0)
		p.cpu += cpuTime() - c0
		if err != nil {
			return nil, fmt.Errorf("load %s: %w", name, err)
		}
		if traced {
			p.spans.addTrace(tr)
		}

		// The codec must round-trip: the loaded snapshot serializes to the
		// same bytes.
		var again bytes.Buffer
		if err := snap.Serialize(&again); err != nil {
			return nil, fmt.Errorf("re-serialize %s: %w", name, err)
		}
		ck.check(bytes.Equal(again.Bytes(), buf.Bytes()), "%s: LoadSnapshot+Serialize changed the bytes", name)
		ck.equal(name+" loaded relations", snap.Len(), lr.DB.Len())
		got = append(got, snapshotDigest{relations: lr.DB.Len(), sha: sha256.Sum256(buf.Bytes())})
		p.values["learn.sims"] += float64(lr.Stats.Sims)
		p.values["learn.relations"] += float64(lr.DB.Len())
		p.values["imply.snapshot_kb"] += float64(buf.Len()) / 1024
	}
	if w.want == nil {
		w.want = got
	} else {
		for i, d := range got {
			ck.equal(w.inputs[i].name+" snapshot vs first pass", d, w.want[i])
		}
	}
	return p, nil
}

func (w *learnSuite) layers(untraced, traced []*pass) map[string]float64 {
	v := map[string]float64{"learn_s": percentile(walls(untraced), 50)}
	tracedLayers(v, traced, "op")
	return v
}
