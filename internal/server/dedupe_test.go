package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// doneSpy is a request context that reports, through waiting, the first
// time anything asks for its Done channel: Wrap asks for it only when a
// duplicate starts waiting on the original.
type doneSpy struct {
	context.Context
	once    *sync.Once
	waiting chan struct{}
}

func (c doneSpy) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestDedupeDuplicateOfDisconnectedOriginal is the regression test for a
// duplicate that waits on an original whose client disconnects. The
// original's handler writes nothing, so its entry has nothing to replay;
// the duplicate used to get 200 with an empty body, which a client then
// failed to decode and never retried. It must run the handler itself.
func TestDedupeDuplicateOfDisconnectedOriginal(t *testing.T) {
	d := NewDeduper(0, nil, nil)
	var calls atomic.Int32
	started := make(chan struct{})
	h := d.Wrap(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			close(started)
			<-r.Context().Done() // the original's client is gone
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"ok":true}`))
	})
	waiting := make(chan struct{})
	var once sync.Once
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Duplicate") != "" {
			r = r.WithContext(doneSpy{r.Context(), &once, waiting})
		}
		h(w, r)
	}))
	defer ts.Close()

	post := func(ctx context.Context, duplicate bool) (*http.Response, error) {
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL, nil)
		req.Header.Set("Idempotency-Key", "k1")
		if duplicate {
			req.Header.Set("X-Duplicate", "1")
		}
		return ts.Client().Do(req)
	}
	ctx, cancel := context.WithCancel(context.Background())
	origDone := make(chan error, 1)
	go func() {
		resp, err := post(ctx, false)
		if err == nil {
			resp.Body.Close()
		}
		origDone <- err
	}()
	<-started

	type result struct {
		status int
		body   string
		err    error
	}
	dupDone := make(chan result, 1)
	go func() {
		resp, err := post(context.Background(), true)
		if err != nil {
			dupDone <- result{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		dupDone <- result{resp.StatusCode, string(body), err}
	}()
	<-waiting
	cancel()
	if err := <-origDone; err == nil {
		t.Fatal("the original's request survived its cancellation")
	}

	got := <-dupDone
	if got.err != nil || got.status != http.StatusOK || got.body != `{"ok":true}` {
		t.Fatalf("duplicate got status=%d body=%q err=%v, want 200 {\"ok\":true}", got.status, got.body, got.err)
	}
	if n := calls.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2 (the original, then the duplicate)", n)
	}
	if n := d.Hits(); n != 0 {
		t.Fatalf("%d dedupe hits: the duplicate replayed an empty entry", n)
	}
}

// TestDedupeStampsContentLength checks that a compute response, executed
// or replayed, is framed by Content-Length rather than chunked, even when
// it is larger than net/http's buffer for inferring one.
func TestDedupeStampsContentLength(t *testing.T) {
	d := NewDeduper(0, nil, nil)
	body := []byte(`{"worlds":"` + strings.Repeat("7", 8000) + `"}`)
	ts := httptest.NewServer(d.Wrap(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	}))
	defer ts.Close()

	for i, key := range []string{"k1", "k1", ""} { // execute, replay, no key
		req, _ := http.NewRequest("POST", ts.URL, nil)
		if key != "" {
			req.Header.Set("Idempotency-Key", key)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || !bytes.Equal(got, body) {
			t.Fatalf("request %d: body of %d bytes, err %v", i, len(got), err)
		}
		framed := resp.ContentLength == int64(len(body)) && len(resp.TransferEncoding) == 0
		if key != "" && !framed {
			t.Fatalf("request %d: Content-Length %d, Transfer-Encoding %v; want %d, none",
				i, resp.ContentLength, resp.TransferEncoding, len(body))
		}
		if key == "" && framed {
			t.Fatal("a handler outside the window came back framed: the test no longer tells the cases apart")
		}
	}
	if d.Hits() != 1 {
		t.Fatalf("dedupe hits %d, want 1", d.Hits())
	}
}
