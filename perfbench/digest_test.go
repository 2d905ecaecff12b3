package main

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"bfbp/internal/experiments"
)

func TestDigestRoundTrip(t *testing.T) {
	lines := []digestLine{
		{"SPEC03", "gshare", counters{100, 7, 450}},
		{"SERV1", "bf-tage-10", counters{200, 3, 900}},
	}
	got, err := parseDigest(formatDigest("w", lines))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, lines) {
		t.Fatalf("round trip = %+v, want %+v", got, lines)
	}
	for _, bad := range []string{"SPEC03 gshare 1 2\n", "SPEC03 gshare 1 2 x\n"} {
		if _, err := parseDigest(bad); err == nil {
			t.Errorf("parseDigest(%q) accepted a malformed line", bad)
		}
	}
}

func TestCompareDigest(t *testing.T) {
	want := []digestLine{
		{"A", "p", counters{10, 1, 40}},
		{"A", "q", counters{10, 2, 40}},
		{"B", "p", counters{20, 3, 80}},
	}
	got := []digestLine{
		{"A", "p", counters{10, 1, 40}}, // matches
		{"A", "q", counters{10, 9, 40}}, // mispredicts differ
		{"C", "p", counters{20, 3, 80}}, // not in the digest
	}
	bad, missing := compareDigest(want, got)
	if len(bad) != 2 || bad[1] == "" || bad[2] == "" {
		t.Errorf("bad = %v, want cells 1 and 2", bad)
	}
	if _, ok := bad[0]; ok {
		t.Errorf("matching cell 0 reported bad: %v", bad[0])
	}
	if !reflect.DeepEqual(missing, []string{"B/p"}) {
		t.Errorf("missing = %v, want [B/p]", missing)
	}
	if bad, missing := compareDigest(want, want); len(bad) != 0 || len(missing) != 0 {
		t.Errorf("identical digests compare unequal: %v %v", bad, missing)
	}
}

// Every workload has a committed canonical digest covering its whole
// matrix.
func TestCommittedDigestsCoverEveryCell(t *testing.T) {
	for _, def := range workloadDefs() {
		lines, err := loadDigest(def.name)
		if err != nil {
			t.Fatalf("%s: %v", def.name, err)
		}
		specs, err := seededSpecs(def, 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := len(specs) * len(def.preds); len(lines) != want {
			t.Errorf("%s: digest has %d cells, matrix has %d", def.name, len(lines), want)
		}
		for _, l := range lines {
			if l.Branches == 0 || l.Instructions == 0 || strings.TrimSpace(l.Predictor) == "" {
				t.Errorf("%s: implausible digest line %+v", def.name, l)
			}
		}
	}
}

// The flagship digest must agree with the repository's own suite
// runner: the same predictors over the same canonical traces and
// options produce the same counters through experiments.Suite.
func TestFlagshipDigestMatchesExperimentsSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four flagship predictors over one trace")
	}
	def, _ := workloadByName("flagship-suite")
	lines, err := loadDigest(def.name)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]counters{}
	for _, l := range lines {
		if l.Trace == "SERV1" {
			want[l.Predictor] = l.counters
		}
	}
	cfg := experiments.Config{LongBranches: def.branches, ShortBranches: def.branches, TraceFilter: []string{"SERV1"}, Workers: 2}
	res, err := experiments.Suite(context.Background(), cfg, experiments.SuitePredictors())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		got := counters{r.Stats.Branches, r.Stats.Mispredicts, r.Stats.Instructions}
		if w, ok := want[r.Predictor]; !ok || got != w {
			t.Errorf("SERV1/%s: experiments.Suite gives %+v, digest has %+v", r.Predictor, got, w)
		}
	}
}
