package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"nnwc/internal/nn"
	"nnwc/internal/preprocess"
	"nnwc/internal/rng"
	"nnwc/internal/train"
	"nnwc/internal/workload"
)

// syntheticDataset samples a smooth non-linear 2→2 function.
func syntheticDataset(n int, seed uint64) *workload.Dataset {
	src := rng.New(seed)
	ds := workload.NewDataset([]string{"a", "b"}, []string{"u", "v"})
	for i := 0; i < n; i++ {
		a, b := src.Uniform(-2, 2), src.Uniform(-2, 2)
		ds.MustAppend(workload.Sample{
			X: []float64{a, b},
			Y: []float64{10 + 3*a*a - b, 5 + math.Sin(a) + 2*b},
		})
	}
	return ds
}

func fastConfig() Config {
	tc := train.DefaultConfig()
	tc.MaxEpochs = 800
	return Config{Hidden: []int{10}, Train: &tc, Seed: 1}
}

func TestFitLearnsNonlinearFunction(t *testing.T) {
	ds := syntheticDataset(150, 7)
	model, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	test := syntheticDataset(40, 8)
	ev, err := Evaluate(model, test)
	if err != nil {
		t.Fatal(err)
	}
	for j, e := range ev.HMRE {
		if e > 0.05 {
			t.Fatalf("indicator %d error %.2f%% — MLP failed to learn a smooth function", j, e*100)
		}
	}
	if ev.Accuracy() < 0.95 {
		t.Fatalf("accuracy %.2f", ev.Accuracy())
	}
}

func TestFitErrorsOnEmpty(t *testing.T) {
	if _, err := Fit(nil, Config{}); err == nil {
		t.Fatal("nil dataset accepted")
	}
	if _, err := Fit(workload.NewDataset([]string{"x"}, []string{"y"}), Config{}); err == nil {
		t.Fatal("empty dataset accepted")
	}
}

func TestDefaultsFillEverything(t *testing.T) {
	c := Config{}.Defaults()
	if len(c.Hidden) == 0 || c.HiddenActivation == nil || c.OutputActivation == nil ||
		c.StandardizeInputs == nil || c.Init == nil || c.Train == nil {
		t.Fatalf("Defaults left gaps: %+v", c)
	}
	if c.HiddenActivation.Name() != "logistic(1)" {
		t.Fatalf("default hidden activation %s, want the paper's sigmoid", c.HiddenActivation.Name())
	}
}

func TestStandardizeModes(t *testing.T) {
	ds := syntheticDataset(60, 9)
	// Auto with m>1 targets: Y scaler should be a Standardizer.
	m1, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m1.YScaler.(*preprocess.Standardizer); !ok {
		t.Fatalf("auto mode with 2 targets: Y scaler is %T", m1.YScaler)
	}
	// Never: identity.
	cfg := fastConfig()
	cfg.StandardizeOutputs = StandardizeNever
	m2, err := Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m2.YScaler.(*preprocess.Identity); !ok {
		t.Fatalf("never mode: Y scaler is %T", m2.YScaler)
	}
	// Single target + auto: identity (the paper's §3.1 rule).
	single := workload.NewDataset([]string{"x"}, []string{"y"})
	src := rng.New(1)
	for i := 0; i < 40; i++ {
		v := src.Uniform(-1, 1)
		single.MustAppend(workload.Sample{X: []float64{v}, Y: []float64{v * v}})
	}
	m3, err := Fit(single, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m3.YScaler.(*preprocess.Identity); !ok {
		t.Fatalf("auto mode with 1 target: Y scaler is %T", m3.YScaler)
	}
	// Inputs can be left raw for ablation.
	f := false
	cfg2 := fastConfig()
	cfg2.StandardizeInputs = &f
	m4, err := Fit(ds, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m4.XScaler.(*preprocess.Identity); !ok {
		t.Fatalf("inputs not left raw: %T", m4.XScaler)
	}
}

func TestFitDeterministicInSeed(t *testing.T) {
	ds := syntheticDataset(80, 10)
	a, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.5, -0.5}
	if a.Predict(x)[0] != b.Predict(x)[0] {
		t.Fatal("same config+seed gave different models")
	}
	cfg := fastConfig()
	cfg.Seed = 999
	c, err := Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Predict(x)[0] == c.Predict(x)[0] {
		t.Fatal("different seeds gave identical models (suspicious)")
	}
}

func TestFitWithValidationEarlyStops(t *testing.T) {
	ds := syntheticDataset(100, 11)
	val := syntheticDataset(30, 12)
	cfg := fastConfig()
	tc := *cfg.Train
	tc.Patience = 25
	tc.MaxEpochs = 4000
	tc.TargetLoss = 0 // disable the loss threshold so patience governs
	cfg.Train = &tc
	m, err := FitWithValidation(ds, val, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.TrainResult.Reason != train.StopEarly && m.TrainResult.Reason != train.StopMaxEpochs {
		t.Fatalf("stop reason %s", m.TrainResult.Reason)
	}
	if math.IsNaN(m.TrainResult.ValLoss) {
		t.Fatal("validation loss not recorded")
	}
	if _, err := FitWithValidation(ds, nil, cfg); err == nil {
		t.Fatal("nil validation dataset accepted")
	}
}

func TestPredictAllAndDims(t *testing.T) {
	ds := syntheticDataset(50, 13)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if m.InputDim() != 2 || m.OutputDim() != 2 {
		t.Fatalf("dims %d→%d", m.InputDim(), m.OutputDim())
	}
	out := m.PredictAll(ds.Xs()[:5])
	if len(out) != 5 || len(out[0]) != 2 {
		t.Fatal("PredictAll shape wrong")
	}
}

func TestEvaluateErrors(t *testing.T) {
	ds := syntheticDataset(30, 14)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	empty := workload.NewDataset(ds.FeatureNames, ds.TargetNames)
	if _, err := Evaluate(m, empty); err == nil {
		t.Fatal("empty evaluation accepted")
	}
	// Dimensionality mismatch between predictor and dataset.
	wrong := workload.NewDataset([]string{"a", "b"}, []string{"only"})
	wrong.MustAppend(workload.Sample{X: []float64{1, 2}, Y: []float64{3}})
	if _, err := Evaluate(m, wrong); err == nil {
		t.Fatal("output-dim mismatch accepted")
	}
}

func TestEvaluationMetricsConsistent(t *testing.T) {
	ds := syntheticDataset(60, 15)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	for j := range ev.HMRE {
		if ev.HMRE[j] < 0 || ev.MAPE[j] < 0 || ev.RMSE[j] < 0 {
			t.Fatal("negative error metric")
		}
		// HM ≤ AM on the same relative errors.
		if ev.HMRE[j] > ev.MAPE[j]+1e-12 {
			t.Fatalf("HMRE %v exceeds MAPE %v", ev.HMRE[j], ev.MAPE[j])
		}
		if ev.R2[j] > 1 {
			t.Fatalf("R² %v > 1", ev.R2[j])
		}
	}
	if ev.MeanHMRE() != (ev.HMRE[0]+ev.HMRE[1])/2 {
		t.Fatal("MeanHMRE wrong")
	}
	if math.Abs(ev.Accuracy()-(1-ev.MeanHMRE())) > 1e-15 {
		t.Fatal("Accuracy inconsistent")
	}
}

func TestCrossValidateShape(t *testing.T) {
	ds := syntheticDataset(100, 16)
	cv, err := CrossValidate(ds, fastConfig(), 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Trials) != 5 {
		t.Fatalf("%d trials", len(cv.Trials))
	}
	totalVal := 0
	for i, tr := range cv.Trials {
		if len(tr.Errors) != 2 {
			t.Fatalf("trial %d has %d errors", i, len(tr.Errors))
		}
		if tr.Train.Len()+tr.Val.Len() != 100 {
			t.Fatalf("trial %d splits to %d+%d", i, tr.Train.Len(), tr.Val.Len())
		}
		totalVal += tr.Val.Len()
	}
	if totalVal != 100 {
		t.Fatalf("validation folds cover %d of 100", totalVal)
	}
	// Averages match the trials.
	for j := range cv.Averages {
		var sum float64
		for _, tr := range cv.Trials {
			sum += tr.Errors[j]
		}
		if math.Abs(cv.Averages[j]-sum/5) > 1e-12 {
			t.Fatal("averages inconsistent with trials")
		}
	}
	if math.Abs(cv.OverallAccuracy()-(1-cv.OverallError())) > 1e-15 {
		t.Fatal("overall accuracy inconsistent")
	}
}

func TestCrossValidateErrors(t *testing.T) {
	if _, err := CrossValidate(nil, Config{}, 5, 1); err == nil {
		t.Fatal("nil dataset accepted")
	}
	small := syntheticDataset(3, 17)
	if _, err := CrossValidate(small, fastConfig(), 5, 1); err == nil {
		t.Fatal("k > n accepted")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	ds := syntheticDataset(60, 18)
	a, err := CrossValidate(ds, fastConfig(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CrossValidate(ds, fastConfig(), 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Averages {
		if a.Averages[j] != b.Averages[j] {
			t.Fatal("cross-validation not deterministic")
		}
	}
}

func TestModelSaveLoadRoundTrip(t *testing.T) {
	ds := syntheticDataset(60, 19)
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.FeatureNames[0] != "a" || back.TargetNames[1] != "v" {
		t.Fatal("schema lost")
	}
	for _, x := range [][]float64{{0, 0}, {1.5, -1}, {-2, 2}} {
		a, b := m.Predict(x), back.Predict(x)
		for j := range a {
			if math.Abs(a[j]-b[j]) > 1e-9 {
				t.Fatalf("loaded model predicts %v, original %v", b[j], a[j])
			}
		}
	}
}

func TestModelSaveLoadIdentityScalers(t *testing.T) {
	// Single-target model keeps an Identity Y scaler; it must survive the
	// round trip too.
	src := rng.New(20)
	ds := workload.NewDataset([]string{"x"}, []string{"y"})
	for i := 0; i < 40; i++ {
		v := src.Uniform(-1, 1)
		ds.MustAppend(workload.Sample{X: []float64{v}, Y: []float64{3 * v}})
	}
	m, err := Fit(ds, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.4}
	if math.Abs(m.Predict(x)[0]-back.Predict(x)[0]) > 1e-9 {
		t.Fatal("identity-scaler model round trip failed")
	}
}

// TestLoadModelRejectsCorrupt pins LoadModel's validation. The scaler
// width cases used to load and then panic on the first Predict, which a
// server turned into a 500 on every request to the tenant.
func TestLoadModelRejectsCorrupt(t *testing.T) {
	// withScalers is a valid 2→1 model document with the given scalers.
	withScalers := func(x, y string) string {
		return `{"feature_names":["a","b"],"target_names":["y"],"x_scaler":` + x + `,"y_scaler":` + y +
			`,"network":{"layers":[{"inputs":2,"outputs":1,"activation":"tanh","w":[[1,2]],"b":[0]}]}}`
	}
	cases := []string{
		``,
		`{}`,
		`{"feature_names":["a"],"target_names":["y"],"x_scaler":{"kind":"what"},"y_scaler":{"kind":"identity"},"network":{"layers":[]}}`,
		`{"feature_names":["a","b"],"target_names":["y"],"x_scaler":{"kind":"identity","dims":2},"y_scaler":{"kind":"identity","dims":1},"network":{"layers":[{"inputs":3,"outputs":1,"activation":"tanh","w":[[1,2,3]],"b":[0]}]}}`,
		withScalers(`{"kind":"standardizer","mean":[0],"std":[1]}`, `{"kind":"identity","dims":1}`),
		withScalers(`{"kind":"identity","dims":2}`, `{"kind":"standardizer","mean":[0,0],"std":[1,1]}`),
		withScalers(`{"kind":"identity","dims":3}`, `{"kind":"identity","dims":1}`),
		withScalers(`{"kind":"identity","dims":2}`, `{"kind":"identity","dims":2}`),
		withScalers(`{"kind":"standardizer","mean":[0,0],"std":[1,0]}`, `{"kind":"identity","dims":1}`),
	}
	if _, err := LoadModel(strings.NewReader(withScalers(`{"kind":"identity"}`, `{"kind":"identity","dims":1}`))); err != nil {
		t.Fatalf("identity scaler without a recorded width rejected: %v", err)
	}
	for i, c := range cases {
		if _, err := LoadModel(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: corrupt model accepted", i)
		}
	}
}

func TestCustomActivationConfig(t *testing.T) {
	// The LNN path through core: LogCompress hidden activation.
	ds := syntheticDataset(60, 21)
	cfg := fastConfig()
	cfg.HiddenActivation = nn.LogCompress{}
	m, err := Fit(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(m, ds)
	if err != nil {
		t.Fatal(err)
	}
	if ev.MeanHMRE() > 0.10 {
		t.Fatalf("LNN training error %.1f%%", ev.MeanHMRE()*100)
	}
}
