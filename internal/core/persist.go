package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"nnwc/internal/nn"
	"nnwc/internal/preprocess"
)

// modelJSON is the on-disk representation of an NNModel: schema, scaler
// parameters, and the network weights. The format is plain JSON so models
// are diffable and inspectable.
type modelJSON struct {
	FeatureNames []string   `json:"feature_names"`
	TargetNames  []string   `json:"target_names"`
	XScaler      scalerJSON `json:"x_scaler"`
	YScaler      scalerJSON `json:"y_scaler"`
	// FeatureMin/FeatureMax carry the training envelope when the model
	// recorded one; absent in artifacts written before the field existed.
	// Keys this struct does not name, such as the quantized float32
	// parameter vector older artifacts carry, are ignored on load.
	FeatureMin []float64       `json:"feature_min,omitempty"`
	FeatureMax []float64       `json:"feature_max,omitempty"`
	Network    json.RawMessage `json:"network"`
}

type scalerJSON struct {
	Kind string    `json:"kind"` // "standardizer" | "identity"
	Mean []float64 `json:"mean,omitempty"`
	Std  []float64 `json:"std,omitempty"`
	Dims int       `json:"dims,omitempty"`
}

func encodeScaler(s preprocess.Scaler) (scalerJSON, error) {
	switch sc := s.(type) {
	case *preprocess.Standardizer:
		return scalerJSON{Kind: "standardizer", Mean: sc.Mean(), Std: sc.Std()}, nil
	case *preprocess.Identity:
		return scalerJSON{Kind: "identity", Dims: sc.Dims()}, nil
	}
	return scalerJSON{}, fmt.Errorf("core: cannot persist scaler of type %T", s)
}

func decodeScaler(sj scalerJSON) (preprocess.Scaler, error) {
	switch sj.Kind {
	case "standardizer":
		// Use the recorded parameters as they are: refitting on mean±std
		// rows would round, and the loaded model would no longer predict
		// bit for bit like the one that was saved.
		sc, err := preprocess.StandardizerFrom(sj.Mean, sj.Std)
		if err != nil {
			return nil, fmt.Errorf("core: malformed standardizer parameters: %w", err)
		}
		return sc, nil
	case "identity":
		sc := preprocess.NewIdentity()
		if sj.Dims > 0 {
			if err := sc.Fit([][]float64{make([]float64, sj.Dims)}); err != nil {
				return nil, err
			}
		}
		return sc, nil
	}
	return nil, fmt.Errorf("core: unknown scaler kind %q", sj.Kind)
}

// Save writes the model as JSON.
func (m *NNModel) Save(w io.Writer) error {
	xs, err := encodeScaler(m.XScaler)
	if err != nil {
		return err
	}
	ys, err := encodeScaler(m.YScaler)
	if err != nil {
		return err
	}
	var netBuf bytes.Buffer
	if err := m.Net.Save(&netBuf); err != nil {
		return err
	}
	doc := modelJSON{
		FeatureNames: m.FeatureNames,
		TargetNames:  m.TargetNames,
		XScaler:      xs,
		YScaler:      ys,
		FeatureMin:   m.FeatureMin,
		FeatureMax:   m.FeatureMax,
		Network:      json.RawMessage(netBuf.Bytes()),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// LoadModel reads a model previously written by Save.
func LoadModel(r io.Reader) (*NNModel, error) {
	var doc modelJSON
	if err := json.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	xScaler, err := decodeScaler(doc.XScaler)
	if err != nil {
		return nil, err
	}
	yScaler, err := decodeScaler(doc.YScaler)
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(doc.Network))
	if err != nil {
		return nil, err
	}
	m := &NNModel{
		FeatureNames: doc.FeatureNames,
		TargetNames:  doc.TargetNames,
		XScaler:      xScaler,
		YScaler:      yScaler,
		FeatureMin:   doc.FeatureMin,
		FeatureMax:   doc.FeatureMax,
		Net:          net,
	}
	if net.InputDim() != len(m.FeatureNames) || net.OutputDim() != len(m.TargetNames) {
		return nil, fmt.Errorf("core: network dims (%d,%d) do not match schema (%d,%d)",
			net.InputDim(), net.OutputDim(), len(m.FeatureNames), len(m.TargetNames))
	}
	if (m.FeatureMin != nil || m.FeatureMax != nil) &&
		(len(m.FeatureMin) != len(m.FeatureNames) || len(m.FeatureMax) != len(m.FeatureNames)) {
		return nil, fmt.Errorf("core: training envelope has %d/%d entries for %d features",
			len(m.FeatureMin), len(m.FeatureMax), len(m.FeatureNames))
	}
	// A scaler fitted to another width would pass decoding and then panic
	// on the first Predict; an unfitted identity (Dims 0) takes any width.
	if d := xScaler.Dims(); d != 0 && d != net.InputDim() {
		return nil, fmt.Errorf("core: x_scaler has %d dims, network expects %d inputs", d, net.InputDim())
	}
	if d := yScaler.Dims(); d != 0 && d != net.OutputDim() {
		return nil, fmt.Errorf("core: y_scaler has %d dims, network has %d outputs", d, net.OutputDim())
	}
	return m, nil
}

// SaveFile writes the model to path, atomically: the JSON lands in a
// temporary sibling file that is renamed into place, so a concurrent reader
// (the prediction server's hot reload) never observes a half-written
// artifact.
func (m *NNModel) SaveFile(path string) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := m.Save(tmp); err != nil {
		_ = tmp.Close() // the save error is the one worth returning
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadModelFile opens path and loads the model persisted there.
func LoadModelFile(path string) (*NNModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadModel(f)
}
