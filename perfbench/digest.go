package main

import (
	"bufio"
	"embed"
	"fmt"
	"strconv"
	"strings"
)

// The committed per-cell digests of the canonical seed (seed 0). Every
// run on seed 0 compares its cells against them; a mismatch fails the
// cell. Regenerating them (-write-digest) is a benchmark change of its
// own, never part of a change that claims a gain.
//
//go:embed digest
var digestFS embed.FS

// counters are the simulated results of one cell. They are
// deterministic, so they must repeat exactly across rounds, traced and
// untraced runs, and commits that only change host-side speed.
type counters struct {
	Branches, Mispredicts, Instructions uint64
}

// digestLine is one cell of a digest.
type digestLine struct {
	Trace, Predictor string
	counters
}

func formatDigest(workload string, lines []digestLine) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# perfbench digest: workload %s, seed 0\n", workload)
	fmt.Fprintf(&b, "# trace predictor branches mispredicts instructions\n")
	for _, l := range lines {
		fmt.Fprintf(&b, "%s %s %d %d %d\n", l.Trace, l.Predictor, l.Branches, l.Mispredicts, l.Instructions)
	}
	return b.String()
}

func parseDigest(s string) ([]digestLine, error) {
	var out []digestLine
	sc := bufio.NewScanner(strings.NewReader(s))
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 5 {
			return nil, fmt.Errorf("digest line %d: want 5 fields, got %d", n, len(f))
		}
		var v [3]uint64
		for i := range v {
			x, err := strconv.ParseUint(f[2+i], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("digest line %d: %w", n, err)
			}
			v[i] = x
		}
		out = append(out, digestLine{f[0], f[1], counters{v[0], v[1], v[2]}})
	}
	return out, sc.Err()
}

func loadDigest(workload string) ([]digestLine, error) {
	b, err := digestFS.ReadFile("digest/" + workload + ".txt")
	if err != nil {
		return nil, err
	}
	return parseDigest(string(b))
}

// compareDigest checks got against want cell by cell and returns a
// description of every mismatch, indexed like got. A cell missing from
// want is a mismatch; so is a want cell that got does not have.
func compareDigest(want, got []digestLine) (bad map[int]string, missing []string) {
	type key struct{ t, p string }
	w := make(map[key]counters, len(want))
	for _, l := range want {
		w[key{l.Trace, l.Predictor}] = l.counters
	}
	bad = map[int]string{}
	seen := map[key]bool{}
	for i, l := range got {
		k := key{l.Trace, l.Predictor}
		seen[k] = true
		c, ok := w[k]
		switch {
		case !ok:
			bad[i] = fmt.Sprintf("%s/%s: not in digest", l.Trace, l.Predictor)
		case c != l.counters:
			bad[i] = fmt.Sprintf("%s/%s: counters %+v, digest %+v", l.Trace, l.Predictor, l.counters, c)
		}
	}
	for _, l := range want {
		if !seen[key{l.Trace, l.Predictor}] {
			missing = append(missing, l.Trace+"/"+l.Predictor)
		}
	}
	return bad, missing
}
