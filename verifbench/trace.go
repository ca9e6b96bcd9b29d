package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"authtext/internal/sig"
)

// Tracing records spans from the benchmark's own code around its calls
// into each layer. A nil *tracer records nothing, so the untraced run pays
// only nil checks.

// span is one timed call. Start and End are nanoseconds since the run
// began; Parent is 0 for a root span; spans of one search share Req.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type tracer struct {
	t0 time.Time
	// on switches recording, so one deployment can run an untraced and a
	// traced phase back to back.
	on   atomic.Bool
	next atomic.Int64
	mu   sync.Mutex
	done []span
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now()}
	t.on.Store(true)
	return t
}

// start opens a span; finish it with end.
func (t *tracer) start(name string, parent int64, req string) *span {
	if t == nil || !t.on.Load() {
		return nil
	}
	return &span{ID: t.next.Add(1), Parent: parent, Name: name, Req: req, Start: int64(time.Since(t.t0))}
}

func (t *tracer) end(s *span) {
	if s == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.done = append(t.done, *s)
	t.mu.Unlock()
}

// id returns the span's ID (0 for a nil span).
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

// callInfo travels in a search's context from the benchmark's call site
// to its transport.
type callInfo struct {
	req  string
	span int64
	// respBytes accumulates the search response bodies as received.
	respBytes atomic.Int64
	// requests counts the HTTP requests the call made.
	requests atomic.Int64
}

type callKey struct{}

const spanHeader = "X-Bench-Span"

// maxPayloads bounds the search bodies a traced run keeps.
const maxPayloads = 1024

// benchTransport is the clients' http.RoundTripper: it counts response
// bytes for every call and, when traced, sets X-Request-ID and times the
// round trip including the body read.
type benchTransport struct {
	base *http.Transport
	tr   *tracer
	// payloads keeps the first traced search bodies for the wire payload
	// size, which is measured after the run.
	mu       sync.Mutex
	payloads [][]byte
	// manifest fetches: count and total nanoseconds.
	manifests, manifestNS atomic.Int64
}

func (b *benchTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	info, _ := req.Context().Value(callKey{}).(*callInfo)
	if info == nil {
		return b.base.RoundTrip(req)
	}
	info.requests.Add(1)
	search := strings.HasSuffix(req.URL.Path, "/search")
	if b.tr == nil || !b.tr.on.Load() {
		resp, err := b.base.RoundTrip(req)
		if err == nil && search {
			resp.Body = &countingBody{ReadCloser: resp.Body, n: &info.respBytes}
		}
		return resp, err
	}
	name := "transport.search"
	if !search {
		name = "transport.manifest"
	}
	s := b.tr.start(name, info.span, info.req)
	req = req.Clone(req.Context())
	req.Header.Set("X-Request-ID", info.req)
	req.Header.Set(spanHeader, strconv.FormatInt(s.id(), 10))
	start := time.Now()
	resp, err := b.base.RoundTrip(req)
	if err != nil {
		b.tr.end(s)
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	b.tr.end(s)
	if err != nil {
		return nil, err
	}
	if search {
		info.respBytes.Add(int64(len(body)))
		b.mu.Lock()
		if len(b.payloads) < maxPayloads {
			b.payloads = append(b.payloads, body)
		}
		b.mu.Unlock()
	} else {
		b.manifests.Add(1)
		b.manifestNS.Add(int64(time.Since(start)))
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

type countingBody struct {
	io.ReadCloser
	n *atomic.Int64
}

func (c *countingBody) Read(p []byte) (int, error) {
	n, err := c.ReadCloser.Read(p)
	c.n.Add(int64(n))
	return n, err
}

// traceHandler wraps the daemon's handler in a server-side span that
// joins the client's round-trip span through the request headers.
func (t *tracer) traceHandler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		s := t.start("httpapi.handler", parent, r.Header.Get("X-Request-ID"))
		h.ServeHTTP(w, r)
		t.end(s)
	})
}

// timedSigner counts and times every signature the owner makes.
type timedSigner struct {
	sig.Signer
	n, ns atomic.Int64
}

func (s *timedSigner) Sign(msg []byte) ([]byte, error) {
	start := time.Now()
	b, err := s.Signer.Sign(msg)
	s.ns.Add(int64(time.Since(start)))
	s.n.Add(1)
	return b, err
}

// countingVerifier counts signature checks during a local re-verification.
type countingVerifier struct {
	sig.Verifier
	n int
}

func (v *countingVerifier) Verify(msg, sigBytes []byte) error {
	v.n++
	return v.Verifier.Verify(msg, sigBytes)
}

// layerRow is one line of the per-layer table.
type layerRow struct {
	name           string
	count          int
	busyMS, selfMS float64
}

// layers aggregates spans by name: count, busy time (sum of durations)
// and self time (duration minus the part covered by child spans).
func (t *tracer) layers() []layerRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][]span{}
	for _, s := range t.done {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerRow{}
	for _, s := range t.done {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{name: s.Name}
			rows[s.Name] = r
		}
		dur := s.End - s.Start
		r.count++
		r.busyMS += float64(dur) / 1e6
		r.selfMS += float64(dur-covered(s, children[s.ID])) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// covered returns how much of parent's interval the children cover.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes every span as one JSON document.
func (t *tracer) writeSpans(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.done, func(i, j int) bool { return t.done[i].Start < t.done[j].Start })
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{t.done})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// printLayers writes the span table and the derived per-layer rows.
func printLayers(w io.Writer, rows []layerRow, derived []metric) {
	fmt.Fprintf(w, "%-24s %8s %12s %12s\n", "span", "count", "busy_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-24s %8d %12.3f %12.3f\n", r.name, r.count, r.busyMS, r.selfMS)
	}
	fmt.Fprintf(w, "%-28s %14s  %s\n", "layer metric", "value", "unit")
	for _, m := range derived {
		fmt.Fprintf(w, "%-28s %14.4f  %s\n", m.name, m.value, m.unit)
	}
}

// mintID returns a 16-hex-digit request ID.
func mintID(n int64) string { return fmt.Sprintf("%016x", uint64(n)*0x9e3779b97f4a7c15) }
