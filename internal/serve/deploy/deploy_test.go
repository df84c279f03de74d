package deploy

import (
	"math"
	"path/filepath"
	"testing"

	"nnwc/internal/core"
	"nnwc/internal/serve/registry"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// trainModel persists a tiny 2→2 model and returns its path. Different
// seeds give different weights over the same schema.
func trainModel(t *testing.T, dir, name string, seed uint64) string {
	t.Helper()
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < 40; i++ {
		a, b := float64(i%8)-4, float64(i/8)-2
		ds.MustAppend(workload.Sample{X: []float64{a, b}, Y: []float64{10 + a*a - b, 5 + a + 2*b}})
	}
	tc := train.DefaultConfig()
	tc.MaxEpochs = 60
	m, err := core.Fit(ds, core.Config{Hidden: []int{4}, Train: &tc, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

func newController(t *testing.T, cfg Config) (*Controller, *registry.Registry, *[]Event) {
	t.Helper()
	reg := registry.New(8)
	var events []Event
	c := New(reg, cfg, func(e Event) { events = append(events, e) })
	return c, reg, &events
}

func TestDeployPromoteRollbackLifecycle(t *testing.T) {
	dir := t.TempDir()
	pathA := trainModel(t, dir, "a.json", 1)
	pathB := trainModel(t, dir, "b.json", 2)
	c, _, events := newController(t, Config{})

	// First deploy goes straight to live, even with canary requested.
	if _, err := c.Deploy("web", pathA, true); err != nil {
		t.Fatal(err)
	}
	d := c.Deployment("web")
	if d.Live() == nil || d.Live().Version != 1 || d.Shadow() != nil {
		t.Fatalf("first deploy: live=%v shadow=%v, want live v1, no shadow", d.Live(), d.Shadow())
	}

	// Second deploy as canary stages a shadow; live unchanged.
	if _, err := c.Deploy("web", pathB, true); err != nil {
		t.Fatal(err)
	}
	if d.Live().Version != 1 || d.Shadow() == nil || d.Shadow().Version != 2 {
		t.Fatalf("canary deploy: live v%d shadow %v", d.Live().Version, d.Shadow())
	}

	// Promote: shadow becomes live, shadow slot empties.
	if _, err := c.Promote("web"); err != nil {
		t.Fatal(err)
	}
	if d.Live().Version != 2 || d.Shadow() != nil {
		t.Fatalf("after promote: live v%d shadow %v", d.Live().Version, d.Shadow())
	}

	// Rollback: live reverts to v1 through the registry.
	if _, err := c.Rollback("web"); err != nil {
		t.Fatal(err)
	}
	if d.Live().Version != 1 {
		t.Fatalf("after rollback: live v%d, want 1", d.Live().Version)
	}
	st := d.Status()
	if st.Promotions != 1 || st.Rollbacks != 1 {
		t.Fatalf("status promotions=%d rollbacks=%d, want 1/1", st.Promotions, st.Rollbacks)
	}

	var actions []string
	for _, e := range *events {
		actions = append(actions, e.Action)
	}
	want := []string{"deploy", "canary", "promote", "rollback"}
	if len(actions) != len(want) {
		t.Fatalf("events %v, want %v", actions, want)
	}
	for i := range want {
		if actions[i] != want[i] {
			t.Fatalf("events %v, want %v", actions, want)
		}
	}
}

func TestRollbackDropsStagedShadow(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := newController(t, Config{})
	if _, err := c.Deploy("web", trainModel(t, dir, "a.json", 1), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("web", trainModel(t, dir, "b.json", 2), true); err != nil {
		t.Fatal(err)
	}
	d := c.Deployment("web")
	if _, err := c.Rollback("web"); err != nil {
		t.Fatal(err)
	}
	if d.Shadow() != nil || d.Live().Version != 1 {
		t.Fatalf("rollback of staged canary: live v%d shadow %v", d.Live().Version, d.Shadow())
	}
	// Nothing left to roll back to.
	if _, err := c.Rollback("web"); err == nil {
		t.Fatal("rollback with no predecessor succeeded")
	}
}

// TestAutoPromoteOnInEnvelopeHMRE: a shadow whose predictions match the
// reported actuals is auto-promoted once its rolling HMRE window fills
// inside the envelope.
func TestAutoPromoteOnInEnvelopeHMRE(t *testing.T) {
	dir := t.TempDir()
	pathA := trainModel(t, dir, "a.json", 1)
	pathB := trainModel(t, dir, "b.json", 2)
	c, _, events := newController(t, Config{AutoPromote: true, MinObservations: 8, PromoteHMRE: 0.10})
	if _, err := c.Deploy("web", pathA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("web", pathB, true); err != nil {
		t.Fatal(err)
	}
	d := c.Deployment("web")
	shadow := d.Shadow()

	x := []float64{1, 1}
	// Actuals equal the shadow's own predictions: shadow HMRE ~ 0, within
	// the envelope and no worse than live.
	actual := shadow.Pred.PredictAll([][]float64{x})[0]
	var promoted bool
	for i := 0; i < 8; i++ {
		dec, err := c.Observe("web", x, actual)
		if err != nil {
			t.Fatal(err)
		}
		if i < 7 && dec.Promoted {
			t.Fatalf("promoted after %d observations, want none before MinObservations=8", i+1)
		}
		promoted = dec.Promoted
	}
	if !promoted {
		t.Fatal("shadow with in-envelope rolling HMRE was not auto-promoted")
	}
	if d.Live().Version != 2 || d.Shadow() != nil {
		t.Fatalf("after auto-promote: live v%d shadow %v", d.Live().Version, d.Shadow())
	}
	last := (*events)[len(*events)-1]
	if last.Action != "promote" || !last.Auto {
		t.Fatalf("last event %+v, want auto promote", last)
	}
}

// TestAutoRollbackOnDegradation: after a promotion, actuals that disagree
// wildly with the live model push rolling HMRE past the demote bound and
// the controller reverts to the predecessor.
func TestAutoRollbackOnDegradation(t *testing.T) {
	dir := t.TempDir()
	pathA := trainModel(t, dir, "a.json", 1)
	pathB := trainModel(t, dir, "b.json", 2)
	c, _, events := newController(t, Config{AutoPromote: true, MinObservations: 6, DemoteHMRE: 0.25})
	if _, err := c.Deploy("web", pathA, false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Deploy("web", pathB, false); err != nil { // direct deploy records prev=v1
		t.Fatal(err)
	}
	d := c.Deployment("web")
	if d.Live().Version != 2 {
		t.Fatalf("live v%d, want 2", d.Live().Version)
	}

	// Inject degradation: actuals an order of magnitude away from live.
	x := []float64{1, 1}
	live := d.Live().Pred.PredictAll([][]float64{x})[0]
	bad := make([]float64, len(live))
	for i, v := range live {
		bad[i] = v*10 + 100
	}
	var rolled bool
	for i := 0; i < 6 && !rolled; i++ {
		dec, err := c.Observe("web", x, bad)
		if err != nil {
			t.Fatal(err)
		}
		rolled = dec.RolledBack
	}
	if !rolled {
		t.Fatal("degraded live model was not rolled back")
	}
	if d.Live().Version != 1 {
		t.Fatalf("after auto-rollback: live v%d, want 1", d.Live().Version)
	}
	last := (*events)[len(*events)-1]
	if last.Action != "rollback" || !last.Auto {
		t.Fatalf("last event %+v, want auto rollback", last)
	}
}

func TestObserveValidation(t *testing.T) {
	dir := t.TempDir()
	c, _, _ := newController(t, Config{})
	if _, err := c.Observe("nope", []float64{1, 2}, []float64{1, 2}); err == nil {
		t.Fatal("observe on unknown tenant succeeded")
	}
	if _, err := c.Deploy("web", trainModel(t, dir, "a.json", 1), false); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Observe("web", []float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("wrong feature count accepted")
	}
	if _, err := c.Observe("web", []float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("wrong indicator count accepted")
	}
	dec, err := c.Observe("web", []float64{1, 2}, []float64{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(dec.LiveHMRE) {
		t.Fatal("live HMRE still NaN after an observation")
	}
	if !math.IsNaN(dec.ShadowHMRE) {
		t.Fatal("shadow HMRE reported with no shadow staged")
	}
	// An actual so near zero that its relative error overflows is refused
	// and leaves the rolling window as it was.
	if _, err := c.Observe("web", []float64{1, 2}, []float64{1e-310, -1e-310}); err == nil {
		t.Fatal("observation with an overflowing relative error accepted")
	}
	again, err := c.Observe("web", []float64{1, 2}, []float64{10, 5})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(again.LiveHMRE, 0) || math.Abs(again.LiveHMRE-dec.LiveHMRE) > 1e-12 {
		t.Fatalf("rolling HMRE %g after a refused observation, want %g", again.LiveHMRE, dec.LiveHMRE)
	}
}

func TestWindowRolls(t *testing.T) {
	w := newWindow(4)
	if !math.IsNaN(w.mean()) {
		t.Fatal("empty window mean should be NaN")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		w.add(v)
	}
	if got := w.mean(); math.Abs(got-2.5) > 1e-12 {
		t.Fatalf("mean %g, want 2.5", got)
	}
	w.add(9) // evicts the 1
	if got := w.mean(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("rolled mean %g, want 4.5", got)
	}
	var w2 window
	w2 = *newWindow(4)
	w2.copyFrom(w)
	if got := w2.mean(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("copied mean %g, want 4.5", got)
	}
	w.reset()
	if w.count() != 0 || !math.IsNaN(w.mean()) {
		t.Fatal("reset window not empty")
	}
	// Values near the float64 limit average without overflowing.
	for i := 0; i < 4; i++ {
		w.add(math.MaxFloat64 / 2)
	}
	if got := w.mean(); got != math.MaxFloat64/2 {
		t.Fatalf("mean of huge values %g, want %g", got, math.MaxFloat64/2)
	}
}
