package nn

import (
	"bytes"
	"math"
	"testing"

	"nnwc/internal/rng"
)

func TestLayerForwardHandChecked(t *testing.T) {
	l := NewLayer(2, 1, Identity{})
	l.W.Set(0, 0, 2)
	l.W.Set(0, 1, -1)
	l.B[0] = 0.5
	out, pre := l.Forward([]float64{3, 4})
	// 2*3 - 1*4 + 0.5 = 2.5
	if out[0] != 2.5 || pre[0] != 2.5 {
		t.Fatalf("forward got %v (pre %v)", out, pre)
	}
}

func TestLayerForwardAppliesActivation(t *testing.T) {
	l := NewLayer(1, 1, Logistic{Alpha: 1})
	l.W.Set(0, 0, 1)
	out, pre := l.Forward([]float64{0})
	if pre[0] != 0 || out[0] != 0.5 {
		t.Fatalf("activation not applied: out %v pre %v", out, pre)
	}
}

func TestLayerShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("wrong input size did not panic")
		}
	}()
	NewLayer(2, 1, Identity{}).Forward([]float64{1})
}

func TestNewNetworkTopology(t *testing.T) {
	n := NewNetwork([]int{4, 8, 3, 5}, Tanh{}, Identity{})
	if len(n.Layers) != 3 {
		t.Fatalf("%d layers", len(n.Layers))
	}
	if n.InputDim() != 4 || n.OutputDim() != 5 {
		t.Fatalf("dims %d→%d", n.InputDim(), n.OutputDim())
	}
	// Hidden layers use the hidden activation; output layer the output one.
	if n.Layers[0].Act.Name() != "tanh" || n.Layers[2].Act.Name() != "identity" {
		t.Fatal("activations assigned wrong")
	}
	sizes := n.Sizes()
	want := []int{4, 8, 3, 5}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes %v", sizes)
		}
	}
}

func TestNumParams(t *testing.T) {
	n := NewNetwork([]int{4, 16, 5}, Tanh{}, Identity{})
	// 4*16+16 + 16*5+5 = 80+16+85 = 165
	if n.NumParams() != 165 {
		t.Fatalf("NumParams %d", n.NumParams())
	}
}

func TestForwardTraceConsistent(t *testing.T) {
	src := rng.New(5)
	n := NewNetwork([]int{3, 7, 2}, Tanh{}, Identity{})
	XavierInit{}.Init(n, src)
	x := []float64{0.3, -1, 2}
	acts, pres := n.ForwardTrace(x)
	if len(acts) != 3 || len(pres) != 2 {
		t.Fatalf("trace lengths %d/%d", len(acts), len(pres))
	}
	direct := n.Forward(x)
	for j := range direct {
		if direct[j] != acts[2][j] {
			t.Fatal("Forward and ForwardTrace disagree")
		}
	}
}

func TestCloneIndependent(t *testing.T) {
	src := rng.New(6)
	n := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	UniformInit{Scale: 1}.Init(n, src)
	c := n.Clone()
	before := n.Forward([]float64{1, 1})[0]
	c.Layers[0].W.Set(0, 0, 99)
	after := n.Forward([]float64{1, 1})[0]
	if before != after {
		t.Fatal("Clone shares weights")
	}
	if c.Forward([]float64{1, 1})[0] == before {
		t.Fatal("mutating the clone had no effect on it")
	}
}

func TestCopyWeightsFrom(t *testing.T) {
	src := rng.New(7)
	a := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	XavierInit{}.Init(a, src)
	XavierInit{}.Init(b, src)
	b.CopyWeightsFrom(a)
	x := []float64{0.5, -0.5}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("CopyWeightsFrom did not copy")
	}
}

func TestCopyWeightsTopologyPanics(t *testing.T) {
	a := NewNetwork([]int{2, 3, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched topology did not panic")
		}
	}()
	b.CopyWeightsFrom(a)
}

func TestUniformInitBounds(t *testing.T) {
	n := NewNetwork([]int{3, 5, 2}, Tanh{}, Identity{})
	UniformInit{Scale: 0.25}.Init(n, rng.New(8))
	for _, l := range n.Layers {
		for _, w := range l.W.Data {
			if math.Abs(w) > 0.25 {
				t.Fatalf("weight %v outside scale", w)
			}
		}
	}
}

func TestXavierInitZeroBiases(t *testing.T) {
	n := NewNetwork([]int{3, 5, 2}, Tanh{}, Identity{})
	XavierInit{}.Init(n, rng.New(9))
	for _, l := range n.Layers {
		for _, b := range l.B {
			if b != 0 {
				t.Fatal("Xavier biases should start at zero")
			}
		}
		// Weights non-trivial.
		var sum float64
		for _, w := range l.W.Data {
			sum += math.Abs(w)
		}
		if sum == 0 {
			t.Fatal("Xavier left weights at zero")
		}
	}
}

func TestInitDeterministic(t *testing.T) {
	a := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	b := NewNetwork([]int{2, 4, 1}, Tanh{}, Identity{})
	XavierInit{}.Init(a, rng.New(42))
	XavierInit{}.Init(b, rng.New(42))
	x := []float64{0.1, 0.9}
	if a.Forward(x)[0] != b.Forward(x)[0] {
		t.Fatal("same seed produced different networks")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src := rng.New(10)
	n := NewNetwork([]int{4, 6, 3}, Logistic{Alpha: 2}, Identity{})
	XavierInit{}.Init(n, src)
	var buf bytes.Buffer
	if err := n.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.2, -0.7, 1.5, 0}
	a, b := n.Forward(x), back.Forward(x)
	for j := range a {
		if a[j] != b[j] {
			t.Fatal("loaded network predicts differently")
		}
	}
	// Activation (with slope) restored.
	if back.Layers[0].Act.Name() != "logistic(2)" {
		t.Fatalf("activation lost: %s", back.Layers[0].Act.Name())
	}
}

func TestLoadRejectsCorrupt(t *testing.T) {
	cases := []string{
		``,
		`{"layers":[]}`,
		`{"layers":[{"inputs":2,"outputs":1,"activation":"nope","w":[[1,2]],"b":[0]}]}`,
		`{"layers":[{"inputs":0,"outputs":1,"activation":"tanh","w":[],"b":[]}]}`,
		`{"layers":[{"inputs":2,"outputs":1,"activation":"tanh","w":[[1]],"b":[0]}]}`,
		`{"layers":[{"inputs":2,"outputs":2,"activation":"tanh","w":[[1,2],[3,4]],"b":[0,0]},{"inputs":3,"outputs":1,"activation":"identity","w":[[1,2,3]],"b":[0]}]}`,
	}
	for i, c := range cases {
		if _, err := Load(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: corrupt network accepted", i)
		}
	}
}

func BenchmarkForward4x16x5(b *testing.B) {
	n := NewNetwork([]int{4, 16, 5}, Logistic{Alpha: 1}, Identity{})
	XavierInit{}.Init(n, rng.New(1))
	x := []float64{0.1, -0.5, 1.2, 0.7}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n.Forward(x)
	}
}

// TestLogCompressNetworkGrowsOutsideRange pins the property that makes a
// LogCompress-hidden network a logarithmic neural network (Hines 1996):
// far beyond any training range its response keeps moving, log-slowly,
// where a sigmoid network's saturates to a constant.
func TestLogCompressNetworkGrowsOutsideRange(t *testing.T) {
	src := rng.New(3)
	logNet := NewNetwork([]int{1, 8, 1}, LogCompress{}, Identity{})
	XavierInit{}.Init(logNet, src.Split())
	sigNet := NewNetwork([]int{1, 8, 1}, Logistic{Alpha: 1}, Identity{})
	XavierInit{}.Init(sigNet, src.Split())

	deltaAt := func(net *Network, x float64) float64 {
		return math.Abs(net.Forward([]float64{x * 2})[0] - net.Forward([]float64{x})[0])
	}
	if d := deltaAt(sigNet, 1e6); d > 1e-9 {
		t.Fatalf("sigmoid net still moving at 1e6: %v", d)
	}
	if d := deltaAt(logNet, 1e6); d == 0 {
		t.Fatal("logarithmic net saturated like a sigmoid")
	}
}
