package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// fuzzBodyLimit is the fuzz server's MaxBodyBytes, small enough that the
// oversized seeds cross it.
const fuzzBodyLimit = 1 << 10

// newFuzzHandler serves the tiny 2→2 test model through the production
// handler stack; inputs go to the handler directly, not over the socket.
func newFuzzHandler(f *testing.F) http.Handler {
	f.Helper()
	s, _ := newTestServer(f, Config{
		ModelPath:    writeTestModel(f, f.TempDir(), 7),
		MaxBodyBytes: fuzzBodyLimit,
	})
	return s.Handler()
}

// postRaw sends body through h and checks the reply: the status is 2xx or
// 4xx, and a 200 body decodes strictly into reply.
func postRaw(t *testing.T, h http.Handler, route string, body []byte, reply any) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, route, bytes.NewReader(body)))
	if class := rec.Code / 100; class != 2 && class != 4 {
		t.Fatalf("%s %q: status %d: %s", route, body, rec.Code, rec.Body)
	}
	if rec.Code != http.StatusOK {
		return
	}
	dec := json.NewDecoder(rec.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(reply); err != nil {
		t.Fatalf("%s %q: 200 reply does not decode: %v: %q", route, body, err, rec.Body)
	}
}

// oversized returns a syntactically valid request body longer than the
// fuzz server's body limit.
func oversized(prefix string) []byte {
	return []byte(prefix + strings.Repeat(" ", fuzzBodyLimit) + "}")
}

// FuzzPredictDecoder posts arbitrary bodies to /predict.
func FuzzPredictDecoder(f *testing.F) {
	for _, seed := range []string{
		`{"x":[1,2]}`,
		`{"model":"default","x":[-4,2]}`,
		`{"model":"default@v1","x":[0,0]}`,
		`{"instances":[[1,2],[3,-1],[0,0]]}`,
		`{"x":[1e308,-1e308]}`,
		`{"x":[1e999,1]}`,
		`{"x":[NaN,1]}`,
		`{"x":[1,2],"instances":[[1,2]]}`,
		`{"x":[1]}`,
		`{"x":[1,2],"extra":true}`,
		`{"model":"nope","x":[1,2]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Add(oversized(`{"x":[1,2]`))
	h := newFuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postRaw(t, h, "/predict", body, &PredictResponse{})
	})
}

// FuzzObserveDecoder posts arbitrary bodies to /observe.
func FuzzObserveDecoder(f *testing.F) {
	for _, seed := range []string{
		`{"x":[1,2],"actual":[10,5]}`,
		`{"model":"default","x":[-4,2],"actual":[26,1]}`,
		`{"x":[1,2],"actual":[0,0]}`,
		// An actual this close to zero overflows the relative error; the
		// observation must not poison the rolling window the next seed
		// reads back.
		`{"x":[1,2],"actual":[1e-310,-1e-310]}`,
		`{"x":[1,2],"actual":[10,5]}`,
		`{"x":[1e308,-1e308],"actual":[1e-308,1e308]}`,
		`{"x":[1e999,1],"actual":[1,1]}`,
		`{"x":[1,2],"actual":[NaN,1]}`,
		`{"x":[1,2],"actual":[1]}`,
		`{"x":[1,2]}`,
		`{"model":"nope","x":[1,2],"actual":[1,1]}`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Add(oversized(`{"x":[1,2],"actual":[10,5]`))
	h := newFuzzHandler(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		postRaw(t, h, "/observe", body, &ObserveResponse{})
	})
}
