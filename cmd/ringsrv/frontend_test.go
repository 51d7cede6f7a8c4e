package main

import (
	"context"
	"net"
	"net/http"
	"testing"
	"time"
)

// The two ways a request reaches the handlers. "loop" is what ringsrv
// runs: serveListener, the connection loop with an http.Server behind
// it for hand-offs. "nethttp" is an http.Server on the socket itself,
// the reference the loop must be indistinguishable from.
var frontends = []string{"loop", "nethttp"}

// testServer is a handler being served on a loopback port.
type testServer struct {
	URL    string
	addr   string
	client *http.Client
	stop   func()
}

func (ts *testServer) Client() *http.Client { return ts.client }

// Close shuts the server down; under the loop it fails the test unless
// serveListener drained cleanly.
func (ts *testServer) Close() {
	ts.client.CloseIdleConnections()
	ts.stop()
}

// startFrontend serves h behind the named front-end. timeout is
// -request-timeout.
func startFrontend(t testing.TB, frontend string, h http.Handler, timeout time.Duration) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ts := &testServer{
		URL:    "http://" + ln.Addr().String(),
		addr:   ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{}},
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: timeout}
	if frontend == "nethttp" {
		go srv.Serve(ln)
		ts.stop = func() { srv.Close() }
		return ts
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- serveListener(srv, ln, ctx, 5*time.Second) }()
	ts.stop = func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("serveListener: %v", err)
		}
	}
	return ts
}

// startFunc starts a handler behind the front-end a test is running
// under.
type startFunc func(h http.Handler) *testServer

// bothFrontends runs test once per front-end, so every HTTP-level test
// of the handlers holds over the loop and over plain net/http alike.
func bothFrontends(t *testing.T, test func(t *testing.T, start startFunc)) {
	for _, fe := range frontends {
		t.Run(fe, func(t *testing.T) {
			test(t, func(h http.Handler) *testServer {
				return startFrontend(t, fe, h, 10*time.Second)
			})
		})
	}
}
