package core

import (
	"bytes"
	"math"
	"os"
	"testing"
)

// FuzzLoadModel asserts the artifact loader never hands back a model that
// cannot serve: any document LoadModel accepts must predict a zero row
// without panicking, and must survive Save→LoadModel with bit-identical
// predictions.
func FuzzLoadModel(f *testing.F) {
	for _, path := range []string{"testdata/golden_model.json", "testdata/golden_model_f32.json"} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{`))
	// Standardizer parameters that refitting on mean±std rows could not
	// save (the rows overflow) or did not reproduce (a zero std).
	for _, ms := range []string{`"mean":[1e308],"std":[1e308]`, `"mean":[0.3],"std":[0]`} {
		f.Add([]byte(`{"feature_names":["a"],"target_names":["y"],"x_scaler":{"kind":"standardizer",` + ms +
			`},"y_scaler":{"kind":"identity","dims":1},"network":{"layers":[{"inputs":1,"outputs":1,"activation":"identity","w":[[1]],"b":[0]}]}}`))
	}
	f.Add([]byte(`{"feature_names":["a"],"target_names":["y"],"x_scaler":{"kind":"identity"},"y_scaler":{"kind":"identity","dims":1},"network":{"layers":[{"inputs":1,"outputs":1,"activation":"tanh","w":[[1]],"b":[0]}]}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := LoadModel(bytes.NewReader(data))
		if err != nil {
			return
		}
		x := make([]float64, m.InputDim())
		got := m.Predict(x)
		if len(got) != m.OutputDim() {
			t.Fatalf("accepted model predicted %d outputs, want %d", len(got), m.OutputDim())
		}

		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("accepted model does not save: %v", err)
		}
		back, err := LoadModel(&buf)
		if err != nil {
			t.Fatalf("saved model does not load: %v", err)
		}
		again := back.Predict(x)
		for j := range got {
			if math.Float64bits(again[j]) != math.Float64bits(got[j]) {
				t.Fatalf("output %d drifted over Save→LoadModel: %v vs %v", j, again[j], got[j])
			}
		}
	})
}
