package bfgehl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"bfbp/internal/state"
)

// TestLoadRejectsOutOfRangeState edits a real snapshot's threshold and
// weights: values commit and adaptTheta can never produce must load as
// state.ErrCorrupt, the boundary values they can must still load.
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
	misc := func(theta, tc int32) func(*state.Snapshot) {
		return func(s *state.Snapshot) {
			m := s.Section("misc").Data()
			binary.LittleEndian.PutUint32(m[0:], uint32(theta))
			binary.LittleEndian.PutUint32(m[4:], uint32(tc))
		}
	}
	// lastWeight sets the last entry of the last table, the final byte of
	// the tables section.
	lastWeight := func(w int8) func(*state.Snapshot) {
		return func(s *state.Snapshot) {
			d := s.Section("tables").Data()
			d[len(d)-1] = uint8(w)
		}
	}
	for _, c := range []struct {
		name    string
		edit    func(*state.Snapshot)
		corrupt bool
	}{
		{"theta 0", misc(0, 0), true},
		{"theta -5", misc(-5, 0), true},
		{"tc 1000", misc(100, 1000), true},
		{"tc -1000", misc(100, -1000), true},
		{"tc 32", misc(100, 32), true},
		{"tc -32", misc(100, -32), true},
		{"weight 127", lastWeight(127), true},
		{"weight -128", lastWeight(-128), true},
		{"weight 16", lastWeight(16), true},
		{"weight -17", lastWeight(-17), true},
		{"theta 1", misc(1, 0), false},
		{"tc 31", misc(100, 31), false},
		{"tc -31", misc(100, -31), false},
		{"weight 15", lastWeight(15), false},
		{"weight -16", lastWeight(-16), false},
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
