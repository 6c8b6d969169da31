package imply

import (
	"bufio"
	"fmt"
	"io"
	"strings"

	"repro/internal/logic"
	"repro/internal/netlist"
)

// Deserialize reads relations written by Snapshot.Serialize into db,
// resolving names against db's circuit. Unknown node names are an error.
func (db *DB) Deserialize(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var nameA, valA, nameB, valB string
		var dt, depth int
		var comb bool
		if _, err := fmt.Sscanf(line, "%s %s %s %s %d %t %d",
			&nameA, &valA, &nameB, &valB, &dt, &comb, &depth); err != nil {
			return fmt.Errorf("imply: line %d: %v", lineNo, err)
		}
		a, err := db.parseLit(nameA, valA)
		if err != nil {
			return fmt.Errorf("imply: line %d: %v", lineNo, err)
		}
		b, err := db.parseLit(nameB, valB)
		if err != nil {
			return fmt.Errorf("imply: line %d: %v", lineNo, err)
		}
		db.Add(a, b, dt, comb, depth)
	}
	return sc.Err()
}

// LoadSnapshot reads relations written by Snapshot.Serialize and returns
// them as a frozen snapshot for c in one call — the cross-process consumer
// path: a daemon (or a later run) rebuilds the immutable read view of a
// learned database from its serialized form without exposing the mutable
// builder. Node names are
// resolved against c, so any circuit with the same node names works.
func LoadSnapshot(c *netlist.Circuit, r io.Reader) (*Snapshot, error) {
	db := NewDB(c)
	if err := db.Deserialize(r); err != nil {
		return nil, err
	}
	return db.Freeze(), nil
}

func (db *DB) parseLit(name, val string) (Lit, error) {
	n, ok := db.c.Lookup(name)
	if !ok {
		return Lit{}, fmt.Errorf("unknown node %q", name)
	}
	switch val {
	case "0":
		return Lit{Node: n, Val: logic.Zero}, nil
	case "1":
		return Lit{Node: n, Val: logic.One}, nil
	}
	return Lit{}, fmt.Errorf("bad value %q", val)
}
