package bfneural

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bfbp/internal/state"
)

// TestLoadRejectsOutOfRangeState edits a real snapshot's threshold,
// loop-trust counter and weights: values satUpdate6, adaptTheta and the
// loop-trust clamp can never produce must load as state.ErrCorrupt, the
// boundary values they can must still load.
func TestLoadRejectsOutOfRangeState(t *testing.T) {
	p := New(Default64KB())
	for _, rec := range diffTrace(t, 3000) {
		p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken, rec.Target)
	}
	var img bytes.Buffer
	if err := p.SaveState(&img); err != nil {
		t.Fatal(err)
	}
	// misc rewrites the misc section: loop trust, theta, tc.
	misc := func(withLoop, theta, tc int32) func(*state.Snapshot) {
		return func(s *state.Snapshot) {
			m := s.Section("misc").Data()
			binary.LittleEndian.PutUint32(m[0:], uint32(withLoop))
			binary.LittleEndian.PutUint32(m[4:], uint32(theta))
			binary.LittleEndian.PutUint32(m[8:], uint32(tc))
		}
	}
	// lastWeight sets the last weight of a table, the final byte of its
	// section.
	lastWeight := func(table string, w int8) func(*state.Snapshot) {
		return func(s *state.Snapshot) {
			d := s.Section(table).Data()
			d[len(d)-1] = uint8(w)
		}
	}
	for _, c := range []struct {
		name    string
		edit    func(*state.Snapshot)
		corrupt bool
	}{
		{"theta 3", misc(0, 3, 0), true},
		{"theta -5", misc(0, -5, 0), true},
		{"tc 16", misc(0, 24, 16), true},
		{"tc -16", misc(0, 24, -16), true},
		{"tc 1000", misc(0, 24, 1000), true},
		{"loop trust 64", misc(64, 24, 0), true},
		{"loop trust -65", misc(-65, 24, 0), true},
		{"wm 127", lastWeight("wm", 127), true},
		{"wm 32", lastWeight("wm", 32), true},
		{"wm -33", lastWeight("wm", -33), true},
		{"wrs -128", lastWeight("wrs", -128), true},
		{"wrs 32", lastWeight("wrs", 32), true},
		{"theta 4", misc(0, 4, 0), false},
		{"tc 15", misc(0, 24, 15), false},
		{"tc -15", misc(0, 24, -15), false},
		{"loop trust 63", misc(63, 24, 0), false},
		{"loop trust -64", misc(-64, 24, 0), false},
		{"wm 31", lastWeight("wm", 31), false},
		{"wm -32", lastWeight("wm", -32), false},
		{"wrs 31", lastWeight("wrs", 31), false},
		{"wrs -32", lastWeight("wrs", -32), false},
		{"wb 127", lastWeight("wb", 127), false},
		{"wb -128", lastWeight("wb", -128), false},
	} {
		s, err := state.Read(bytes.NewReader(img.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		c.edit(s)
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		err = New(Default64KB()).LoadState(&buf)
		if c.corrupt && !errors.Is(err, state.ErrCorrupt) {
			t.Errorf("%s: LoadState = %v, want ErrCorrupt", c.name, err)
		}
		if !c.corrupt && err != nil {
			t.Errorf("%s: LoadState = %v, want success", c.name, err)
		}
	}
}
