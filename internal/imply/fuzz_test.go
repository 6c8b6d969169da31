package imply

import (
	"bytes"
	"testing"
)

// FuzzLoadSnapshot: LoadSnapshot never panics, and any input it accepts
// reaches a fixed point after one serialize → load → serialize cycle.
func FuzzLoadSnapshot(f *testing.F) {
	for _, seed := range []string{
		"f1 1 f2 0 0 false 2\ng1 1 f1 1 1 true 1\n",
		"# comment\n\ng2 0 f2 0 -3 false 0\r\n",
		"f2 1 f1 0 0 true 5\nf1 1 f2 0 0 false 2\n",
		"a 1 a 0 0 false 0\n",
		"f1 1 f2 0 -32768 false 32767\n",
		"f1 1 f2 0 0 false 0 extra\n",
	} {
		f.Add([]byte(seed))
	}
	c := testCircuit(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		s, err := LoadSnapshot(c, bytes.NewReader(in))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := s.Serialize(&first); err != nil {
			t.Fatal(err)
		}
		s2, err := LoadSnapshot(c, bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("serialized snapshot does not load: %v\n%s", err, first.Bytes())
		}
		var second bytes.Buffer
		if err := s2.Serialize(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("not a fixed point:\n%s\nthen:\n%s", first.Bytes(), second.Bytes())
		}
	})
}
