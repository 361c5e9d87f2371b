package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/cluster"
	"repro/internal/server"
)

// stack is the serving path under test, booted inside this process: two
// knowd shards and one knowrouter, each on its own loopback listener and
// configured as cmd/knowd and cmd/knowrouter configure them by default.
// The benchmark wraps the public Handlers and the router's shard
// transport, which pass straight through while the tracer is off.
type stack struct {
	shards    []*server.Server
	router    *cluster.Router
	routerURL string
	https     []*http.Server
	served    []chan error
}

const numShards = 2

func bootStack(t *tracer) (*stack, error) {
	st := &stack{}
	serve := func(h http.Handler) (string, error) {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		hs := &http.Server{Handler: h}
		done := make(chan error, 1)
		go func() { done <- hs.Serve(l) }()
		st.https = append(st.https, hs)
		st.served = append(st.served, done)
		return "http://" + l.Addr().String(), nil
	}
	var shards []cluster.Shard
	for i := 0; i < numShards; i++ {
		id := fmt.Sprintf("n%d", i+1)
		// BootID as cmd/knowd mints one: it fences session ids per shard.
		srv := server.New(server.Config{BootID: id})
		addr, err := serve(t.wrapShard("shard", srv.Handler()))
		if err != nil {
			st.shutdown()
			return nil, err
		}
		st.shards = append(st.shards, srv)
		shards = append(shards, cluster.Shard{ID: id, Addr: addr, Weight: 1})
	}
	rt, err := cluster.New(cluster.Config{
		Shards:     shards,
		HTTPClient: &http.Client{Timeout: 30 * time.Second, Transport: hopTransport{t: t, base: http.DefaultTransport}},
	})
	if err != nil {
		st.shutdown()
		return nil, err
	}
	st.router = rt
	if st.routerURL, err = serve(t.wrapRouter(rt.Handler())); err != nil {
		st.shutdown()
		return nil, err
	}
	rt.StartHealth()
	return st, nil
}

// shutdown drains the router, then the shards, and waits for every
// listener's Serve to return.
func (st *stack) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if st.router != nil {
		errs = append(errs, st.router.Shutdown(ctx))
	}
	for _, s := range st.shards {
		errs = append(errs, s.Shutdown(ctx))
	}
	// A connection the transport dialed but never used looks new, not
	// idle, to the server, and Shutdown would wait seconds for it; closing
	// the client side first lets every listener drain at once.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	for i := len(st.https) - 1; i >= 0; i-- {
		errs = append(errs, st.https[i].Shutdown(ctx))
		if err := <-st.served[i]; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
