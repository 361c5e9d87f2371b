package server

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// dedupeWindow is the server-side single-flight idempotency table: the
// first request carrying a given Idempotency-Key executes and stores its
// response; duplicates that arrive while it is in flight wait on done and
// replay the stored bytes, and duplicates that arrive after it completed
// replay immediately. Either way the handler body runs once per key — a
// retried eval is never recomputed and a retried announce never advances
// the session chain twice.
//
// Entries whose response was transient (load-shed 429, draining 503,
// panic 500) are dropped instead of stored, so a client retrying the same
// key gets a fresh execution once capacity returns.
type dedupeWindow struct {
	mu      sync.Mutex
	max     int
	entries map[string]*dedupeEntry
	order   *list.List // of string keys, oldest first; completed entries evict FIFO
}

type dedupeEntry struct {
	done      chan struct{} // closed when status/body are final
	status    int
	body      []byte
	header    http.Header
	transient bool // do not keep: a retry should re-execute
	elem      *list.Element
}

func newDedupeWindow(max int) *dedupeWindow {
	return &dedupeWindow{
		max:     max,
		entries: make(map[string]*dedupeEntry),
		order:   list.New(),
	}
}

// begin claims key. The first caller gets (entry, true) and must call
// finish exactly once; later callers get (entry, false) and wait on done.
func (d *dedupeWindow) begin(key string) (*dedupeEntry, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if e, ok := d.entries[key]; ok {
		return e, false
	}
	d.evictLocked()
	e := &dedupeEntry{done: make(chan struct{})}
	e.elem = d.order.PushBack(key)
	d.entries[key] = e
	return e, true
}

// finish publishes the executed response (or drops the entry when the
// response is transient) and releases every waiter.
func (d *dedupeWindow) finish(key string, e *dedupeEntry, status int, header http.Header, body []byte, transient bool) {
	d.mu.Lock()
	e.status = status
	e.header = header
	e.body = body
	e.transient = transient
	if transient {
		delete(d.entries, key)
		d.order.Remove(e.elem)
	}
	d.mu.Unlock()
	close(e.done)
}

// evictLocked drops oldest completed entries until the window has room.
// In-flight entries are skipped: their waiters still need the result.
func (d *dedupeWindow) evictLocked() {
	for el := d.order.Front(); el != nil && d.order.Len() >= d.max; {
		key := el.Value.(string)
		next := el.Next()
		e := d.entries[key]
		select {
		case <-e.done:
			delete(d.entries, key)
			d.order.Remove(el)
		default: // in flight
		}
		el = next
	}
}

// size reports the number of tracked keys (testing hook).
func (d *dedupeWindow) size() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.entries)
}

// Deduper packages the idempotency machinery as reusable middleware:
// Wrap gives any mutating handler single-flight Idempotency-Key semantics
// backed by one shared window. knowd fronts its compute endpoints with one,
// and knowrouter fronts its own routes with another, so a duplicate request
// is absorbed at whichever layer sees it first — the router's window
// collapses client retries before they fan upstream, and the shard's window
// collapses the router's own retried forwards.
type Deduper struct {
	win     *dedupeWindow
	hits    atomic.Int64
	logf    func(format string, args ...any)
	onPanic func()
}

// NewDeduper builds a Deduper remembering up to window keys (<=0 means
// 256). logf receives panic log lines and onPanic fires once per recovered
// handler panic; either may be nil.
func NewDeduper(window int, logf func(format string, args ...any), onPanic func()) *Deduper {
	if window <= 0 {
		window = 256
	}
	return &Deduper{win: newDedupeWindow(window), logf: logf, onPanic: onPanic}
}

// Hits reports how many duplicate requests replayed a stored response.
func (d *Deduper) Hits() int64 { return d.hits.Load() }

// Wrap gives h Idempotency-Key semantics: the first request with a key
// executes against a response recorder, stores the bytes, and every
// duplicate — concurrent or later — replays them. Transient outcomes
// (shed, draining, panic, client disconnect) are not stored, so a retry of
// the same key re-executes once conditions clear.
func (d *Deduper) Wrap(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		key := r.Header.Get("Idempotency-Key")
		if key == "" {
			h(w, r)
			return
		}
		e, first := d.win.begin(key)
		for !first {
			select {
			case <-e.done:
			case <-r.Context().Done():
				return // duplicate's client gone before the original finished
			}
			if e.status != 499 {
				d.hits.Add(1)
				writeStored(w, e)
				return
			}
			// The original's client left and it produced nothing to
			// replay; its entry is gone, so claim the key and run the
			// handler here (or wait on whoever claimed it first).
			e, first = d.win.begin(key)
		}
		rec := &recorder{header: make(http.Header)}
		func() {
			defer func() {
				if p := recover(); p != nil {
					if d.onPanic != nil {
						d.onPanic()
					}
					if d.logf != nil {
						d.logf("panic serving %s %s: %v", r.Method, r.URL.Path, p)
					}
					rec.status = http.StatusInternalServerError
					rec.buf.Reset()
					rec.header.Set("Content-Type", "application/json")
					body, _ := json.Marshal(errorBody{Error: fmt.Sprintf("internal error: %v", p)})
					rec.buf.Write(body)
				}
			}()
			h(rec, r)
		}()
		status := rec.status
		if status == 0 {
			// The handler wrote nothing (client disconnected mid-compute).
			status = 499
		}
		transient := status == http.StatusTooManyRequests ||
			status == http.StatusServiceUnavailable ||
			status >= 500 || status == 499
		d.win.finish(key, e, status, rec.header, rec.buf.Bytes(), transient)
		writeStored(w, e)
	}
}

// recorder captures a handler's response for the dedupe window.
type recorder struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.header }

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
	}
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.status = http.StatusOK
	}
	return r.buf.Write(b)
}

// writeStored writes an executed response with a Content-Length, so no
// compute response is chunked on the wire. A 499 entry produced nothing,
// and the client it was for is gone.
func writeStored(w http.ResponseWriter, e *dedupeEntry) {
	if e.status == 499 {
		return
	}
	for k, vs := range e.header {
		w.Header()[k] = vs
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(e.body)))
	w.WriteHeader(e.status)
	w.Write(e.body)
}
