package bfbp_test

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"bfbp"
)

// pinnedSnapshots are the SHA-256 digests of the bfbp.state.v1 images the
// TAGE-family, OH-SNAP, BF-GEHL and BF-Neural predictors write after the
// fixed SPEC07 3000-branch run.
// TestSnapshotByteStable only checks save→load→save within one build;
// these pins check across builds, so a snapshot written by an older
// build still loads into a newer one. A payload change must change the
// config hash or the container version (see internal/state), never
// these bytes silently.
var pinnedSnapshots = map[string]string{
	"tage-15":        "b167153f167b47214ab381f0191a493e3928628ad35fa7c14a70349ce7dc3773",
	"isl-tage-15":    "0eafc827f72b1dae04f1c3b80b89fa87d1741429d652887da36d6d9dd1ece8d4",
	"isl-tage-4":     "13ecc0e8cf9514bbdfa19e6fb245ac159e9edb7d5b2f89ba3b9e274c14ed7026",
	"bf-tage-10":     "c48703c4484e9edc2f223016eb7bba0994be370165273fd8f2f80b32dd1dab05",
	"bf-isl-tage-10": "36d67782f6f6c3d3c10d4e8094f2cb713ecf18f5f6325324a34279a31d54ae9d",
	"bf-tage-4":      "fc3d2105a710c0c5a76d40c88e09772fcdf5d4ec4edd07030cbc3aba8915bf54",
	"oh-snap":        "3198dc5a7cd7502f46a37dbe79287ca9ae09375aa6ffb449d3a063aec73e2947",
	"bf-gehl":        "b0ca44d8356b274df06ec8cd3caffcd481a89152ea94af795be26bda2548c692",
	"bf-neural":      "9128b84a63b358d57079975b0bca0dc4c215b9bf8e06815d9185b4cf719c7b24",
}

func TestSnapshotBytesPinned(t *testing.T) {
	tr := genTrace(t, "SPEC07", 3000)
	for name, want := range pinnedSnapshots {
		name, want := name, want
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			p, err := bfbp.NewByName(name)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := bfbp.Run(p, tr.Stream(), bfbp.Options{}); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(saveState(t, p))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Fatalf("snapshot SHA-256 = %s, pinned %s", got, want)
			}
		})
	}
}
