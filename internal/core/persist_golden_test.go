package core

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenModelRoundTrip loads the committed model fixtures and checks
// they still predict as they did when written. golden_model.json comes from
// the pre-flat-weights implementation and is held to its committed
// predictions; this pins the persisted-model format across the
// memory-layout refactor: scaler parameters, schema, and nested weight rows
// all keep loading. golden_model_f32.json was written while artifacts still
// carried a quantized params_f32 vector; it must load and predict bit for
// bit like the same document with that key removed. Every fixture must
// survive Save→LoadModel unchanged.
func TestGoldenModelRoundTrip(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden_model_predictions.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden struct {
		Probes      [][]float64 `json:"probes"`
		Predictions [][]float64 `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	if len(golden.Probes) == 0 {
		t.Fatal("golden fixture has no probes")
	}

	for _, tc := range []struct {
		path string
		// legacyKey, when set, names a key the current format no longer
		// writes: the reference predictions come from the same document
		// with the key removed, and must match exactly.
		legacyKey string
	}{
		{path: "testdata/golden_model.json"},
		{path: "testdata/golden_model_f32.json", legacyKey: "params_f32"},
	} {
		t.Run(filepath.Base(tc.path), func(t *testing.T) {
			data, err := os.ReadFile(tc.path)
			if err != nil {
				t.Fatal(err)
			}
			model, err := LoadModel(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("golden model no longer loads: %v", err)
			}
			if model.InputDim() != 2 || model.OutputDim() != 2 {
				t.Fatalf("golden model dims %d->%d", model.InputDim(), model.OutputDim())
			}

			want, tol := golden.Predictions, 1e-12
			if tc.legacyKey != "" {
				want, tol = predictWithout(t, data, tc.legacyKey, golden.Probes), 0
			}
			for i, x := range golden.Probes {
				got := model.Predict(x)
				for j, w := range want[i] {
					if math.Abs(got[j]-w) > tol*(1+math.Abs(w)) {
						t.Fatalf("probe %d output %d: got %v, want %v", i, j, got[j], w)
					}
				}
			}

			// The batched path must agree with the per-probe path exactly.
			batch := model.PredictAll(golden.Probes)
			for i := range golden.Probes {
				for j, w := range want[i] {
					if math.Abs(batch[i][j]-w) > tol*(1+math.Abs(w)) {
						t.Fatalf("batched probe %d output %d: got %v, want %v", i, j, batch[i][j], w)
					}
				}
			}

			// Saving the loaded model and loading it again must round-trip.
			var buf bytes.Buffer
			if err := model.Save(&buf); err != nil {
				t.Fatal(err)
			}
			back, err := LoadModel(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i, x := range golden.Probes {
				got, w := back.Predict(x), model.Predict(x)
				for j := range w {
					if got[j] != w[j] {
						t.Fatalf("re-saved probe %d output %d drifted: %v vs %v", i, j, got[j], w[j])
					}
				}
			}
		})
	}
}

// predictWithout loads the model document data with its top-level key
// removed and returns its predictions for probes.
func predictWithout(t *testing.T, data []byte, key string, probes [][]float64) [][]float64 {
	t.Helper()
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(data, &fields); err != nil {
		t.Fatal(err)
	}
	if _, ok := fields[key]; !ok {
		t.Fatalf("fixture carries no %q key", key)
	}
	delete(fields, key)
	stripped, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := LoadModel(bytes.NewReader(stripped))
	if err != nil {
		t.Fatalf("fixture without %q no longer loads: %v", key, err)
	}
	return ref.PredictAll(probes)
}
