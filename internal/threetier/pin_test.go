package threetier_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"testing"

	"nnwc/internal/experiments"
	"nnwc/internal/sched"
	"nnwc/internal/threetier"
	"nnwc/internal/workload"
)

// Collected datasets pinned by the SHA-256 of their CSV encoding, so any
// change to the simulator, its event order or collection's seeding that
// moves one output bit fails here.
const (
	// The `cmd/experiments -quick` dataset at the paper seed; the same
	// value the repo benchmark's correctness gate pins.
	pinQuickSHA = "f45709a74e9ca63917aaa1da9429af9b65c4b1c976a645a932f5c5156b8f1841"
	// Every 54th configuration of DefaultSweep under DefaultSystemParams:
	// 12 rows spanning all three injection rates.
	pinDefaultSliceSHA = "d9a79df81dca4acef3e72558a379943457f6e741482b95e72eda6c2547f4aa23"
)

func csvSHA(t *testing.T, ds *workload.Dataset) string {
	t.Helper()
	var b bytes.Buffer
	if err := ds.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b.Bytes())
	return hex.EncodeToString(sum[:])
}

func defaultSlice() []threetier.Config {
	var out []threetier.Config
	for i, cfg := range threetier.DefaultSweep().Configs() {
		if i%54 == 0 {
			out = append(out, cfg)
		}
	}
	return out
}

func TestCollectQuickDatasetPinned(t *testing.T) {
	c := experiments.NewQuick(io.Discard, "")
	ds, err := threetier.Collect(c.Sweep, c.Sys, 2006)
	if err != nil {
		t.Fatal(err)
	}
	if got := csvSHA(t, ds); got != pinQuickSHA {
		t.Fatalf("quick dataset sha256 %s, pinned %s", got, pinQuickSHA)
	}
}

func TestCollectDefaultSweepSlicePinned(t *testing.T) {
	ds, err := threetier.CollectConfigs(defaultSlice(), 1, threetier.DefaultSystemParams(), 2006)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != 12 {
		t.Fatalf("%d rows, want 12", ds.Len())
	}
	if got := csvSHA(t, ds); got != pinDefaultSliceSHA {
		t.Fatalf("DefaultSweep slice sha256 %s, pinned %s", got, pinDefaultSliceSHA)
	}
}

// TestCollectIdenticalAcrossWorkers requires collection with replicates to
// give the same bytes at every process-wide worker count.
func TestCollectIdenticalAcrossWorkers(t *testing.T) {
	t.Cleanup(func() { sched.SetWorkers(0) })
	c := experiments.NewQuick(io.Discard, "")
	configs := c.Sweep.Configs()[:12]
	var want string
	for _, w := range []int{1, 2, 8} {
		sched.SetWorkers(w)
		ds, err := threetier.CollectConfigs(configs, 2, c.Sys, 7)
		if err != nil {
			t.Fatal(err)
		}
		got := csvSHA(t, ds)
		if want == "" {
			want = got
		} else if got != want {
			t.Fatalf("workers=%d: sha256 %s, workers=1 gave %s", w, got, want)
		}
	}
}
