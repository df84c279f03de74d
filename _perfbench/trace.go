package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-owned interval around a call into a layer. Spans
// of one request share Req; Parent is the ID of the span that caused it
// (0 for a root).
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Req    int64         `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil *recorder is
// tracing off: every method is a no-op, so the untraced run pays one nil
// check per call site.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent, req int64) int64 {
	if r == nil {
		return 0
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	id := int64(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return id
}

// end closes the span begin returned.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.t0)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// around runs fn inside a span named name and returns fn's error.
func (r *recorder) around(name string, parent int64, fn func(id int64) error) error {
	id := r.begin(name, parent, 0)
	defer r.end(id)
	return fn(id)
}

// snapshot returns the closed spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// layerTime is the aggregate of every span with one name.
type layerTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name. A span's self time is its duration
// minus the part of its interval that its direct children cover; children
// that overlap each other (parallel work) are counted once, and the part
// of a child outside its parent is ignored.
func selfTimes(spans []span) []layerTime {
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*layerTime{}
	var names []string
	for _, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &layerTime{Name: s.Name}
			byName[s.Name] = lt
			names = append(names, s.Name)
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, children[s.ID])
	}
	sort.Strings(names)
	out := make([]layerTime, len(names))
	for i, n := range names {
		out[i] = *byName[n]
	}
	return out
}

// covered is the length of the union of the children's intervals clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, reach time.Duration
	reach = parent.Start
	for _, v := range iv {
		lo := max(v[0], reach)
		if v[1] > lo {
			total += v[1] - lo
			reach = v[1]
		}
	}
	return total
}

// layerOf is the layer a span name belongs to: the text before its first
// dot ("threetier.collect" → "threetier").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// printSelfTable writes the per-span and per-layer self-time table.
func printSelfTable(w io.Writer, lts []layerTime) {
	fmt.Fprintf(w, "%-28s %8s %12s %12s\n", "span", "count", "total_s", "self_s")
	layers := map[string]time.Duration{}
	var order []string
	for _, lt := range lts {
		fmt.Fprintf(w, "%-28s %8d %12.4f %12.4f\n", lt.Name, lt.Count, lt.Total.Seconds(), lt.Self.Seconds())
		l := layerOf(lt.Name)
		if _, ok := layers[l]; !ok {
			order = append(order, l)
		}
		layers[l] += lt.Self
	}
	sort.Strings(order)
	fmt.Fprintf(w, "%-28s %12s\n", "layer", "self_s")
	for _, l := range order {
		fmt.Fprintf(w, "%-28s %12.4f\n", l, layers[l].Seconds())
	}
}

// writeJSONL writes the stamp as the first line, then one span per line.
func writeJSONL(path string, st stamp, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(st)
	for i := 0; err == nil && i < len(spans); i++ {
		err = enc.Encode(spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
