package experiments

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// quickCtx builds a scaled-down context writing into a temp dir.
func quickCtx(t *testing.T) (*Context, *bytes.Buffer) {
	t.Helper()
	var buf bytes.Buffer
	c := NewQuick(&buf, t.TempDir())
	// Shrink further: unit tests need speed, not statistics.
	c.Sys.WarmupTime = 2
	c.Sys.MeasureTime = 8
	return c, &buf
}

func TestDatasetCachedAndSchema(t *testing.T) {
	c, _ := quickCtx(t)
	ds, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != c.Sweep.Size() {
		t.Fatalf("%d samples, sweep size %d", ds.Len(), c.Sweep.Size())
	}
	again, err := c.Dataset()
	if err != nil {
		t.Fatal(err)
	}
	if again != ds {
		t.Fatal("Dataset not cached")
	}
}

func TestRunTable1And2(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunTable1(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunTable2(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Table 2") || !strings.Contains(out, "Average") {
		t.Fatalf("table 2 report incomplete:\n%s", out)
	}
	if !strings.Contains(out, "prediction accuracy") {
		t.Fatal("headline accuracy missing")
	}
	// CSV artifact written.
	if _, err := os.Stat(filepath.Join(c.OutDir, "table2.csv")); err != nil {
		t.Fatal("table2.csv not written")
	}
	// CV cache reused by a second call.
	cv1, err := c.CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	cv2, err := c.CrossValidation()
	if err != nil {
		t.Fatal(err)
	}
	if cv1 != cv2 {
		t.Fatal("CrossValidation not cached")
	}
}

func TestRunFig2(t *testing.T) {
	c, buf := quickCtx(t)
	if err := c.RunFig2(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 2") {
		t.Fatal("fig2 report missing")
	}
	data, err := os.ReadFile(filepath.Join(c.OutDir, "fig2_sigmoid.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), "x,alpha=0.5,alpha=1,alpha=2,alpha=5") {
		t.Fatalf("fig2 CSV header wrong: %s", strings.SplitN(string(data), "\n", 2)[0])
	}
	lines := strings.Count(string(data), "\n")
	if lines < 80 {
		t.Fatalf("fig2 CSV has only %d lines", lines)
	}
}

func TestRunFig5AndFig6(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunFig5(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFig6(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 5", "Figure 6", "o=actual x=predicted"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in figure reports", want)
		}
	}
	// One CSV per indicator per figure.
	matches, err := filepath.Glob(filepath.Join(c.OutDir, "fig5_training_*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(matches) != 5 {
		t.Fatalf("fig5 artifacts: %d", len(matches))
	}
}

func TestRunSurfaces(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunFig4(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFig7(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFig8(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Figure 4", "Figure 7", "Figure 8", "classification:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	for _, f := range []string{"fig4_parallel_slopes.csv", "fig7_valley.csv", "fig8_hill.csv"} {
		if _, err := os.Stat(filepath.Join(c.OutDir, f)); err != nil {
			t.Fatalf("artifact %s missing", f)
		}
	}
}

func TestRunBaselineAndExtrapolation(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunBaseline(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"linear (OLS)", "MLP (paper)", "LNN (Hines)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("baseline table missing %q", want)
		}
	}
}

func TestRunRecommend(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunRecommend(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "recommended config") {
		t.Fatal("recommendation missing")
	}
	if _, err := os.Stat(filepath.Join(c.OutDir, "recommendation.csv")); err != nil {
		t.Fatal("recommendation.csv missing")
	}
}

func TestAllAndLookup(t *testing.T) {
	all := All()
	if len(all) < 10 {
		t.Fatalf("only %d experiments registered", len(all))
	}
	ids := map[string]bool{}
	for _, r := range all {
		if r.ID == "" || r.Desc == "" || r.Run == nil {
			t.Fatalf("incomplete runner %+v", r)
		}
		if ids[r.ID] {
			t.Fatalf("duplicate id %s", r.ID)
		}
		ids[r.ID] = true
	}
	for _, id := range []string{"table2", "fig4", "fig7", "fig8", "baseline", "extrapolation"} {
		if _, ok := Lookup(id); !ok {
			t.Fatalf("Lookup(%s) failed", id)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Fatal("Lookup accepted unknown id")
	}
}

func TestShortNames(t *testing.T) {
	in := []string{"manufacturing_rt", "dealer_purchase_rt", "effective_tps"}
	out := shortNames(in)
	for _, n := range out {
		if len(n) > 12 {
			t.Fatalf("name %q too long", n)
		}
	}
}

func TestSubsample(t *testing.T) {
	vs := []float64{1, 2, 3, 4, 5, 6, 7}
	got := subsample(vs, 3)
	if len(got) != 3 || got[0] != 1 || got[2] != 7 {
		t.Fatalf("subsample %v", got)
	}
	if len(subsample(vs, 10)) != 7 {
		t.Fatal("k>len should return all")
	}
}

func TestRunSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunSampling(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"factorial(3)", "uniform-random", "latin-hypercube"} {
		if !strings.Contains(out, want) {
			t.Fatalf("sampling report missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(c.OutDir, "sampling_designs.csv")); err != nil {
		t.Fatal("sampling_designs.csv missing")
	}
}

func TestRunImportanceAndNodeCount(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunImportance(); err != nil {
		t.Fatal(err)
	}
	if err := c.RunNodeCount(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Permutation feature importance", "partial dependence", "Hidden-node selection", "selected:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q", want)
		}
	}
	for _, f := range []string{"importance.csv", "nodecount.csv"} {
		if _, err := os.Stat(filepath.Join(c.OutDir, f)); err != nil {
			t.Fatalf("%s missing", f)
		}
	}
}

func TestRunAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment integration test")
	}
	c, buf := quickCtx(t)
	if err := c.RunAblations(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"standardize (§3.1)", "threshold (§3.3)", "optimizer", "ensemble"} {
		if !strings.Contains(out, want) {
			t.Fatalf("ablation report missing %q", want)
		}
	}
	if _, err := os.Stat(filepath.Join(c.OutDir, "ablations.csv")); err != nil {
		t.Fatal("ablations.csv missing")
	}
}

// TestWriteArtifactReportsWriteErrors pins that a CSV write the device
// refuses surfaces as an error instead of a truncated artifact: /dev/full
// accepts the open and fails every write with ENOSPC.
func TestWriteArtifactReportsWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full on this platform")
	}
	c := &Context{OutDir: "/dev"}
	err := c.writeArtifact("full", func(w io.Writer) error {
		fmt.Fprintln(w, "a,b")
		return nil
	})
	if err == nil {
		t.Fatal("write to a full device reported success")
	}
}
