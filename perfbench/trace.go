package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch. A client op's own span has ID == Op, so every
// other span of the op points at it through Op, and at its caller through
// Parent.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer records spans in memory while on, and carries the maps that
// link each hop of a request back to the client op that caused it:
//
//   - the client's Idempotency-Key, seen leaving the benchmark client,
//     names the op at the router;
//   - evals carry the op in the router request's context into the
//     router→shard transport; opens, announces and closes run on
//     background contexts, so the transport names their op through the
//     logical session ((system, seed) for opens, the shard session id
//     after that);
//   - the router's own Idempotency-Key, seen in that transport, names the
//     op and hop span at the shard.
type tracer struct {
	on     atomic.Bool
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	keyOp      sync.Map // client Idempotency-Key -> op id
	routerSpan sync.Map // op id -> router span id
	hopKey     sync.Map // router→shard Idempotency-Key -> hopRef
	sessOp     sync.Map // logical session key -> op id in flight on it
	sidKey     sync.Map // shard host + "/" + shard session id -> logical key
}

type hopRef struct{ op, span int64 }

type opCtxKey struct{}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) newID() int64 { return t.nextID.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func logicalKey(system string, seed int64) string { return fmt.Sprintf("%s#%d", system, seed) }

// routeKind classifies a knowd/knowrouter request by method and path.
func routeKind(method, path string) string {
	switch {
	case method == "POST" && path == "/v1/sessions":
		return "open"
	case method == "POST" && strings.HasSuffix(path, "/eval"):
		return "eval"
	case method == "POST" && strings.HasSuffix(path, "/announce"):
		return "announce"
	case method == "DELETE" && strings.HasPrefix(path, "/v1/sessions/"):
		return "close"
	case path == "/healthz":
		return "healthz"
	}
	return "other"
}

// sessionOfPath extracts the session id from /v1/sessions/{id}[/...].
func sessionOfPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/v1/sessions/")
	if !ok {
		return ""
	}
	id, _, _ := strings.Cut(rest, "/")
	return id
}

// clientTransport sits under one benchmark client and records which op
// each outgoing Idempotency-Key belongs to. A client runs one op at a
// time, so the op in flight is the one cur holds.
type clientTransport struct {
	t    *tracer
	base http.RoundTripper
	cur  *atomic.Int64
}

func (c clientTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if c.t.on.Load() {
		if key := req.Header.Get("Idempotency-Key"); key != "" {
			c.t.keyOp.Store(key, c.cur.Load())
		}
	}
	return c.base.RoundTrip(req)
}

// wrapRouter spans the router's Handler and hands the op to the
// router→shard transport through the request context.
func (t *tracer) wrapRouter(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		var op int64
		if v, ok := t.keyOp.Load(r.Header.Get("Idempotency-Key")); ok {
			op = v.(int64)
		}
		id, start := t.newID(), t.now()
		if op != 0 {
			t.routerSpan.Store(op, id)
			r = r.WithContext(context.WithValue(r.Context(), opCtxKey{}, hopRef{op: op, span: id}))
		}
		h.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: op, Op: op, Name: "router." + routeKind(r.Method, r.URL.Path), Start: start, End: t.now()})
	})
}

// hopTransport is the router's shard transport (cluster.Config.HTTPClient):
// it spans each router→shard call from request to the end of the response
// body, and registers the router's Idempotency-Key for the shard.
type hopTransport struct {
	t    *tracer
	base http.RoundTripper
}

func (h hopTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	t := h.t
	if !t.on.Load() {
		return h.base.RoundTrip(req)
	}
	kind := routeKind(req.Method, req.URL.Path)
	var op, parent int64
	logical := ""
	if ref, ok := req.Context().Value(opCtxKey{}).(hopRef); ok {
		op, parent = ref.op, ref.span
	} else {
		if kind == "open" && req.GetBody != nil {
			if body, err := req.GetBody(); err == nil {
				var or server.OpenRequest
				if json.NewDecoder(body).Decode(&or) == nil {
					logical = logicalKey(or.System, or.Seed)
				}
				body.Close()
			}
		} else if v, ok := t.sidKey.Load(req.URL.Host + "/" + sessionOfPath(req.URL.Path)); ok {
			logical = v.(string)
		}
		if v, ok := t.sessOp.Load(logical); ok {
			op = v.(int64)
			if s, ok := t.routerSpan.Load(op); ok {
				parent = s.(int64)
			}
		}
	}
	id, start := t.newID(), t.now()
	if key := req.Header.Get("Idempotency-Key"); key != "" {
		t.hopKey.Store(key, hopRef{op: op, span: id})
	}
	resp, err := h.base.RoundTrip(req)
	sp := span{ID: id, Parent: parent, Op: op, Name: "hop." + kind, Start: start}
	if err != nil {
		sp.End = t.now()
		t.add(sp)
		return resp, err
	}
	if kind == "open" && logical != "" && resp.StatusCode == http.StatusCreated {
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		var st server.SessionState
		if rerr == nil && json.Unmarshal(data, &st) == nil {
			t.sidKey.Store(req.URL.Host+"/"+st.Session, logical)
		}
		resp.Body = io.NopCloser(bytes.NewReader(data))
	}
	resp.Body = &spanBody{ReadCloser: resp.Body, t: t, sp: sp}
	return resp, err
}

// spanBody ends a hop span when the caller closes the response body.
type spanBody struct {
	io.ReadCloser
	t    *tracer
	sp   span
	once sync.Once
}

func (b *spanBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() {
		b.sp.End = b.t.now()
		b.t.add(b.sp)
	})
	return err
}

// countingWriter counts the bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// wrapShard spans one shard's Handler and counts the bytes it writes.
func (t *tracer) wrapShard(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		var ref hopRef
		if key := r.Header.Get("Idempotency-Key"); key != "" {
			if v, ok := t.hopKey.Load(key); ok {
				ref = v.(hopRef)
			}
		}
		id, start := t.newID(), t.now()
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r)
		t.add(span{ID: id, Parent: ref.span, Op: ref.op, Name: name + "." + routeKind(r.Method, r.URL.Path),
			Start: start, End: t.now(), Bytes: cw.n})
	})
}

// writeSpans writes spans as JSON lines, one span per line.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
