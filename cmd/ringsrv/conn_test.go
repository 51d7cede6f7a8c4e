package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/url"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rings/internal/oracle"
	"rings/internal/shard"
)

// Request heads as the clients write them. goClientGet/goClientPost are
// net/http's Transport with compression off (bench/client.go) and on
// (cmd/ringload); curlGet is curl's.
func plainGet(target string) string {
	return "GET " + target + " HTTP/1.1\r\nHost: ringsrv.test\r\n\r\n"
}

func plainPost(target, body string) string {
	return "POST " + target + " HTTP/1.1\r\nHost: ringsrv.test\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\nContent-Type: application/json\r\n\r\n" + body
}

const (
	goClientGet  = "GET /estimate?u=17&v=903 HTTP/1.1\r\nHost: 127.0.0.1:40123\r\nUser-Agent: Go-http-client/1.1\r\n\r\n"
	goClientPost = "POST /batch HTTP/1.1\r\nHost: 127.0.0.1:40123\r\nUser-Agent: Go-http-client/1.1\r\nContent-Length: 25\r\nContent-Type: application/json\r\n\r\n" + `{"pairs":[{"u":1,"v":2}]}`
	ringloadGet  = "GET /nearest?target=5 HTTP/1.1\r\nHost: 127.0.0.1:8390\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n"
	curlGet      = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1:8390\r\nUser-Agent: curl/7.88.1\r\nAccept: */*\r\n\r\n"
)

func dialRaw(t testing.TB, ts *testServer) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", ts.addr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// rawResponse is one response as read off a socket: header is without
// Date (dated says whether there was one) and Connection (closing says
// whether it was "close").
type rawResponse struct {
	status  int
	header  http.Header
	body    string
	dated   bool
	closing bool
}

func readRaw(t testing.TB, br *bufio.Reader, method string) rawResponse {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response body: %v", err)
	}
	dated := resp.Header.Get("Date") != ""
	resp.Header.Del("Date")
	return rawResponse{resp.StatusCode, resp.Header, string(body), dated, resp.Close}
}

// exchange sends one request on a connection of its own.
func exchange(t testing.TB, ts *testServer, req string) rawResponse {
	t.Helper()
	conn := dialRaw(t, ts)
	defer conn.Close()
	if _, err := io.WriteString(conn, req); err != nil {
		t.Fatal(err)
	}
	method, _, _ := strings.Cut(req, " ")
	return readRaw(t, bufio.NewReader(conn), method)
}

// sameAnswer holds the loop's response to net/http's. A timed body
// reports durations (uptime, latencies, build seconds): it and its length
// are not compared, only that both have one or neither does.
func sameAnswer(t *testing.T, what string, loop, ref rawResponse, timed bool) {
	t.Helper()
	if timed {
		for _, r := range []*rawResponse{&loop, &ref} {
			r.header.Del("Content-Length")
			r.body = strconv.FormatBool(r.body != "")
		}
	}
	if !reflect.DeepEqual(loop, ref) {
		t.Errorf("%s:\n loop     %+v\n net/http %+v", what, loop, ref)
	}
}

// TestFrontendsAnswerAlike sends every route — good and bad parameters,
// an unknown path, a wrong method — raw over TCP to two identically
// built servers, one behind each front-end, in the same order: status,
// headers other than Date and body bytes must be equal (sameAnswer).
func TestFrontendsAnswerAlike(t *testing.T) {
	batch := `{"pairs":[{"u":1,"v":2},{"u":40,"v":7}]}`
	cases := []struct {
		req   string
		timed bool // the body reports durations
	}{
		{plainGet("/healthz"), true},
		{plainGet("/estimate?u=1&v=2"), false},
		{plainGet("/estimate?u=1&v=2"), false}, // the cached repeat
		{plainGet("/estimate?v=2&u=1&pad=x"), false},
		{plainGet("/estimate?u=1"), false},
		{plainGet("/estimate?u=&v=2"), false},
		{plainGet("/estimate?u=one&v=2"), false},
		{plainGet("/estimate?u=1&v=99999"), false},
		{plainGet("/estimate?u=1&v=2&u=3"), false},
		{plainGet("/estimate"), false},
		{plainGet("/estimate?"), false},
		{plainPost("/batch", batch), false},
		{plainPost("/batch", `{"pairs":[{"u":1}]}`), false},
		{plainPost("/batch", `{"pairs":[]}`), false},
		{plainPost("/batch", ""), false},
		{plainGet("/nearest?target=3"), false},
		{plainGet("/nearest"), false},
		{plainGet("/nearest?target=-4"), false},
		{plainGet("/route?src=1&dst=5"), false},
		{plainGet("/route?src=1"), false},
		{plainPost("/snapshot", `{"seed":3}`), true},
		{plainPost("/snapshot", `{"seed":`), false},
		{plainGet("/stats"), true},
		{plainGet("/stats?shard=0"), true},
		{plainGet("/stats?shard=9"), true},
		{plainPost("/join", `{"count":1}`), false},
		{plainPost("/join", ""), false},
		{plainPost("/leave", `{"base":3}`), false},
		{plainGet("/churn/stats"), false},
		{plainGet("/metrics"), true},
		{plainGet("/debug/trace"), false},
		{plainGet("/debug/trace?n=-1"), false},
		{plainGet("/replica"), false},
		{plainPost("/replica", `{"shard":0,"replica":0,"action":"explode"}`), false},
		{plainPost("/publish", `{"object":"o1","node":3}`), false},
		{plainPost("/publish", `{"object":"","node":3}`), false},
		{plainPost("/publish", `{"object":"o1","node":-3}`), false},
		{plainGet("/lookup?object=o1&from=5"), false},
		{plainGet("/lookup?from=5"), false},
		{plainGet("/lookup?object=o1"), false},
		{plainGet("/lookup?object=nope&from=1"), false},
		{plainGet("/objects/stats"), false},
		{plainPost("/unpublish", `{"object":"o1","node":3}`), false},
		{plainPost("/unpublish", `{"object":"o1","node":3}`), false},
		{plainGet("/nope"), false},
		{plainGet("/"), false},
		{plainPost("/nope", "{}"), false},
		{plainPost("/estimate", ""), false},
		{plainGet("/batch"), false},
		{plainGet("/publish"), false},
	}
	handlers := map[string]func() http.Handler{
		"single": func() http.Handler { return newServer(testEngine(t)) },
		"fleet":  func() http.Handler { return newFleetServer(testFleet(t, false), 1) },
	}
	for mode, build := range handlers {
		t.Run(mode, func(t *testing.T) {
			loop := startFrontend(t, "loop", build(), 10*time.Second)
			defer loop.Close()
			ref := startFrontend(t, "nethttp", build(), 10*time.Second)
			defer ref.Close()
			looped, debug, direct := mLoopRequests.Value(), mHandoffs.With("debug").Value(), 0
			for _, c := range cases {
				line, _, _ := strings.Cut(c.req, "\r\n")
				if !strings.Contains(line, " /debug/") {
					direct++
				}
				got, want := exchange(t, loop, c.req), exchange(t, ref, c.req)
				sameAnswer(t, line, got, want, c.timed)
			}
			if n := mLoopRequests.Value() - looped; n != int64(direct) {
				t.Errorf("the loop answered %d requests, want %d", n, direct)
			}
			if n := mHandoffs.With("debug").Value() - debug; n != int64(len(cases)-direct) {
				t.Errorf("%d /debug/ hand-offs, want %d", n, len(cases)-direct)
			}
		})
	}
}

// TestHandOffs: each request the loop must decline is answered by
// net/http with the bytes replayed — the same answer the reference
// front-end gives — and counted under its reason.
func TestHandOffs(t *testing.T) {
	batch := `{"pairs":[` + strings.Repeat(`{"u":1,"v":2},`, 80) + `{"u":3,"v":4}]}`
	chunked := fmt.Sprintf("POST /batch HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n%x\r\n%s\r\n0\r\n\r\n", len(batch), batch)
	cases := []struct {
		name, req, reason string
		status            int
	}{
		{"HTTP/1.0", "GET /healthz HTTP/1.0\r\n\r\n", "version", 200},
		{"Connection: close", "GET /estimate?u=1&v=2 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", "framing", 200},
		{"chunked POST", chunked, "framing", 200},
		{"HEAD", "HEAD /healthz HTTP/1.1\r\nHost: h\r\n\r\n", "method", 200},
		{"5 KiB head", "GET /estimate?u=1&v=2 HTTP/1.1\r\nHost: h\r\nX-Pad: " + strings.Repeat("p", 5<<10) + "\r\n\r\n", "head_size", 200},
		{"%2F in the target", "GET /lookup?object=a%2Fb&from=1 HTTP/1.1\r\nHost: h\r\n\r\n", "target", 404},
		{"pprof", "GET /debug/pprof/cmdline HTTP/1.1\r\nHost: h\r\n\r\n", "debug", 200},
		{"bare LF", "GET /healthz HTTP/1.1\nHost: h\n\n", "framing", 200},
		{"no Host", "GET /healthz HTTP/1.1\r\n\r\n", "framing", 400},
		{"GET with a body", "GET /healthz HTTP/1.1\r\nHost: h\r\nContent-Length: 2\r\n\r\n{}", "framing", 200},
		{"POST without a length", "POST /join HTTP/1.1\r\nHost: h\r\n\r\n", "framing", 501},
	}
	build := func() http.Handler {
		srv := newServer(testEngine(t))
		srv.enablePprof()
		return srv
	}
	loop := startFrontend(t, "loop", build(), 10*time.Second)
	defer loop.Close()
	ref := startFrontend(t, "nethttp", build(), 10*time.Second)
	defer ref.Close()
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before, looped := mHandoffs.With(c.reason).Value(), mLoopRequests.Value()
			got, want := exchange(t, loop, c.req), exchange(t, ref, c.req)
			if got.status != c.status {
				t.Errorf("status %d, want %d (body %q)", got.status, c.status, got.body)
			}
			sameAnswer(t, c.name, got, want, strings.Contains(c.req, " /healthz "))
			if n := mHandoffs.With(c.reason).Value() - before; n != 1 {
				t.Errorf("%d hand-offs for %q, want 1", n, c.reason)
			}
			if n := mLoopRequests.Value() - looped; n != 0 {
				t.Errorf("the loop answered %d requests of a connection it should have handed off", n)
			}
		})
	}

	t.Run("Expect: 100-continue", func(t *testing.T) {
		conn := dialRaw(t, loop)
		defer conn.Close()
		br := bufio.NewReader(conn)
		fmt.Fprintf(conn, "POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: %d\r\nExpect: 100-continue\r\n\r\n", len(batch))
		if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "HTTP/1.1 100 ") {
			t.Fatalf("want 100 Continue before the body, got %q, %v", line, err)
		}
		br.ReadString('\n') // the blank line of the interim response
		io.WriteString(conn, batch)
		if resp := readRaw(t, br, "POST"); resp.status != 200 || strings.Count(resp.body, `"u":`) != 81 {
			t.Fatalf("status %d, body %q", resp.status, resp.body)
		}
	})

	t.Run("plain then not", func(t *testing.T) {
		looped, direct := mLoopRequests.Value(), mNetHTTPRequests.Value()
		conn := dialRaw(t, loop)
		defer conn.Close()
		br := bufio.NewReader(conn)
		io.WriteString(conn, plainGet("/estimate?u=1&v=2"))
		if resp := readRaw(t, br, "GET"); resp.status != 200 {
			t.Fatalf("plain request: status %d", resp.status)
		}
		io.WriteString(conn, "GET /estimate?u=2&v=%33 HTTP/1.1\r\nHost: h\r\n\r\n"+plainGet("/estimate?u=3&v=4"))
		for _, want := range []string{`"u":2,"v":3,`, `"u":3,"v":4,`} {
			if resp := readRaw(t, br, "GET"); resp.status != 200 || !strings.Contains(resp.body, want) {
				t.Fatalf("after the hand-off: status %d body %q, want %s", resp.status, resp.body, want)
			}
		}
		if l, d := mLoopRequests.Value()-looped, mNetHTTPRequests.Value()-direct; l != 1 || d != 2 {
			t.Fatalf("loop answered %d and net/http %d, want 1 and 2", l, d)
		}
	})

	t.Run("pipelined", func(t *testing.T) {
		looped := mLoopRequests.Value()
		conn := dialRaw(t, loop)
		defer conn.Close()
		br := bufio.NewReader(conn)
		io.WriteString(conn, plainGet("/estimate?u=5&v=6")+plainPost("/batch", `{"pairs":[{"u":7,"v":8}]}`)+plainGet("/nearest?target=9"))
		for i, want := range []string{`"u":5,"v":6,`, `"u":7,"v":8,`, `"target":9,`} {
			if resp := readRaw(t, br, "GET"); resp.status != 200 || !strings.Contains(resp.body, want) {
				t.Fatalf("response %d: status %d body %q, want %s", i, resp.status, resp.body, want)
			}
		}
		if n := mLoopRequests.Value() - looped; n != 3 {
			t.Fatalf("the loop answered %d of 3 pipelined requests", n)
		}
	})

	t.Run("head in three segments", func(t *testing.T) {
		looped := mLoopRequests.Value()
		conn := dialRaw(t, loop)
		defer conn.Close()
		req := plainPost("/batch", `{"pairs":[{"u":7,"v":8}]}`)
		for _, part := range []string{req[:9], req[9:40], req[40 : len(req)-5], req[len(req)-5:]} {
			io.WriteString(conn, part)
			time.Sleep(20 * time.Millisecond)
		}
		if resp := readRaw(t, bufio.NewReader(conn), "POST"); resp.status != 200 || !strings.Contains(resp.body, `"u":7,"v":8,`) {
			t.Fatalf("status %d body %q", resp.status, resp.body)
		}
		if n := mLoopRequests.Value() - looped; n != 1 {
			t.Fatalf("the loop answered %d requests, want 1", n)
		}
	})
}

// FuzzPlainHead: on any bytes the matcher neither panics nor reads past
// the head it accepts, and what it accepts net/http reads as the same
// request.
func FuzzPlainHead(f *testing.F) {
	for _, seed := range []string{
		goClientGet, goClientPost, ringloadGet, curlGet,
		plainGet("/"), plainGet("/stats?shard=1"), plainPost("/join", ""), plainPost("/leave", `{"base":3}`),
		"GET /healthz HTTP/1.0\r\n\r\n",
		"GET /estimate?u=1&v=2 HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n",
		"POST /batch HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
		"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 2000\r\nExpect: 100-continue\r\n\r\n",
		"HEAD /healthz HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /lookup?object=a%2Fb&from=1 HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /debug/pprof/cmdline HTTP/1.1\r\nHost: h\r\n\r\n",
		"GET /healthz HTTP/1.1\nHost: h\n\n",
		"GET /a//b/./c?x=1#f HTTP/1.1\r\nHost: [::1]:80\r\nhost: again\r\n\r\n",
		"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 007\r\ncontent-length: 7\r\n\r\n",
		"GET /x HTTP/1.1\r\nHost: h\r\n folded: v\r\nBad Name: v\r\nX: \x01\r\n\r\n",
		plainGet("/estimate?u=1&v=2") + plainGet("/estimate?u=3&v=4"),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, reason := matchHead(b)
		if h.size == 0 || reason != "" {
			if h.size != 0 {
				t.Fatalf("declined (%q) with size %d", reason, h.size)
			}
			return
		}
		if h.size > len(b) || h.size > maxHead || h.bodyLen > maxBatchBody {
			t.Fatalf("head of %d bytes, body of %d, from %d bytes", h.size, h.bodyLen, len(b))
		}
		// The head alone, capacity clipped: a read past it would panic,
		// and the verdict must not depend on what follows.
		alone, _ := matchHead(b[:h.size:h.size])
		if !reflect.DeepEqual(alone, h) {
			t.Fatalf("head alone matched as %+v, with its tail as %+v", alone, h)
		}
		req, err := http.ReadRequest(bufio.NewReader(bytes.NewReader(b[:h.size])))
		if err != nil {
			t.Fatalf("accepted %q, which net/http refuses: %v", b[:h.size], err)
		}
		if req.Method != h.method || req.URL.Path != string(h.path) || req.URL.RawQuery != string(h.query) ||
			req.ContentLength != int64(h.bodyLen) || req.Close ||
			req.Proto != "HTTP/1.1" || len(req.TransferEncoding) != 0 {
			t.Fatalf("%q\n matched as %s path %q query %q length %d\n net/http: %s path %q query %q length %d host %q close %v",
				b[:h.size], h.method, h.path, h.query, h.bodyLen,
				req.Method, req.URL.Path, req.URL.RawQuery, req.ContentLength, req.Host, req.Close)
		}
	})
}

// TestMatchHeadVerdicts pins the verdict on heads around each edge of
// the grammar.
func TestMatchHeadVerdicts(t *testing.T) {
	long := strings.Repeat("p", maxHead)
	for _, c := range []struct{ head, reason string }{
		{goClientGet, ""}, {goClientPost, ""}, {ringloadGet, ""}, {curlGet, ""},
		{"GET / HTTP/1.1\r\nhOsT:\t h:80 \r\n\r\n", ""},
		{"POST /join HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n", ""},
		{"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 4194304\r\n\r\n", ""},
		{"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 4194305\r\n\r\n", "framing"},
		{"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 00\r\n\r\n", "framing"},
		{"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: +1\r\n\r\n", "framing"},
		{"POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 1\r\nContent-Length: 1\r\n\r\n", "framing"},
		{"PUT / HTTP/1.1\r\nHost: h\r\n\r\n", "method"},
		{"get / HTTP/1.1\r\nHost: h\r\n\r\n", "method"},
		{"GET / HTTP/1.0\r\nHost: h\r\n\r\n", "version"},
		{"GET / HTTP/1.10\r\nHost: h\r\n\r\n", "version"},
		{"GET /\r\n", "version"},
		{"GET /a b HTTP/1.1\r\nHost: h\r\n\r\n", "version"},
		{"GET http://h/ HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET * HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /a//b HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /a/../b HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /a+b HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /a\x7f HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /é HTTP/1.1\r\nHost: h\r\n\r\n", "target"},
		{"GET /debug/trace HTTP/1.1\r\nHost: h\r\n\r\n", "debug"},
		{"GET /debug HTTP/1.1\r\nHost: h\r\n\r\n", ""},
		{"GET / HTTP/1.1\r\nHost: a b\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\nHost: h\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\nUpgrade: h2c\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\nTrailer: X\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\n: v\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\nX: a\rb\r\n\r\n", "framing"},
		{"GET / HTTP/1.1\r\nHost: h\r\nX-Pad: " + long + "\r\n\r\n", "head_size"},
		{"GET /" + long, "head_size"},
	} {
		h, reason := matchHead([]byte(c.head))
		size := 0
		if reason == "" {
			size = strings.Index(c.head, "\r\n\r\n") + 4
		}
		if reason != c.reason || h.size != size {
			t.Errorf("%q: reason %q size %d, want reason %q", c.head, reason, h.size, c.reason)
		}
	}
	for _, partial := range []string{"", "G", "GET / HTTP/1.1\r", "GET / HTTP/1.1\r\nHost: h\r\n", goClientPost[:len(goClientPost)-26]} {
		if h, reason := matchHead([]byte(partial)); reason != "" || h.size != 0 {
			t.Errorf("%q: reason %q size %d, want to be asked for more", partial, reason, h.size)
		}
	}
}

// TestQueryParamMatchesURLValues pins intParam, on every shape of query,
// to what r.URL.Query().Get and strconv.Atoi answered before handlers
// read the raw query themselves — the error text included.
func TestQueryParamMatchesURLValues(t *testing.T) {
	old := func(rawQuery, name string) (int, error) {
		raw := (&url.URL{RawQuery: rawQuery}).Query().Get(name)
		if raw == "" {
			return 0, fmt.Errorf("missing required parameter %q", name)
		}
		v, err := strconv.Atoi(raw)
		if err != nil {
			return 0, fmt.Errorf("parameter %q: %v", name, err)
		}
		return v, nil
	}
	for _, rawQuery := range []string{
		"", "u", "u=", "u=7", "v=2&u=7", "v=2&u=7&w=3", "u=7&u=8", "u=&u=8", "uu=1&u=7", "xu=1", "&&u=7&", "=7",
		"u=7=8", "u==7", "u=x", "u=7x", "u=-7", "u=+7", "u=%37", "%75=7", "u=7%", "u=%zz&u=7", "u=7;v=2", "v=2;u=7&u=8",
		"u=99999999999999999999", "u=1.5", "u= 7", "u=7&", "U=7", "v=2",
	} {
		got, gotErr := intParam(rawQuery, "u")
		want, wantErr := old(rawQuery, "u")
		if got != want || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("intParam(%q, u) = %d, %v; r.URL.Query() gave %d, %v", rawQuery, got, gotErr, want, wantErr)
		}
	}
}

// TestStalledBodyHoldsNoSlot: -request-timeout bounds the arrival of a
// plain request's body, and the body is read before admission — a
// /batch whose body stalls is closed after the timeout, and while it
// stalls the server's single slot is free.
func TestStalledBodyHoldsNoSlot(t *testing.T) {
	srv := newServer(testEngine(t))
	srv.enableLimits(1)
	const timeout = 300 * time.Millisecond
	ts := startFrontend(t, "loop", srv, timeout)
	defer ts.Close()

	conn := dialRaw(t, ts)
	defer conn.Close()
	begun := time.Now()
	io.WriteString(conn, "POST /batch HTTP/1.1\r\nHost: h\r\nContent-Length: 64\r\n\r\n{\"pairs\":[")
	for i := 0; i < 3; i++ {
		if resp := exchange(t, ts, plainGet("/estimate?u=1&v=2")); resp.status != http.StatusOK {
			t.Fatalf("estimate beside a stalled /batch body: status %d %q", resp.status, resp.body)
		}
	}
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("stalled connection: read %d, %v; want it closed without an answer", n, err)
	}
	if waited := time.Since(begun); waited < timeout || waited > 10*timeout {
		t.Fatalf("stalled connection closed after %v, want about %v", waited, timeout)
	}
}

// TestLoopHandlerPanic: a panicking handler costs its connection only.
func TestLoopHandlerPanic(t *testing.T) {
	var logged bytes.Buffer
	log.SetOutput(&logged)
	defer log.SetOutput(os.Stderr)
	mux := http.NewServeMux()
	mux.HandleFunc("/boom", func(http.ResponseWriter, *http.Request) { panic("boom") })
	mux.HandleFunc("/fine", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "fine\n") })
	ts := startFrontend(t, "loop", mux, 10*time.Second)

	conn := dialRaw(t, ts)
	defer conn.Close()
	io.WriteString(conn, plainGet("/boom"))
	if n, err := conn.Read(make([]byte, 1)); n != 0 || err != io.EOF {
		t.Fatalf("after a handler panic: read %d, %v; want the connection closed", n, err)
	}
	want := rawResponse{200, http.Header{"Content-Type": {"text/plain; charset=utf-8"}, "Content-Length": {"5"}}, "fine\n", true, false}
	if resp := exchange(t, ts, plainGet("/fine")); !reflect.DeepEqual(resp, want) {
		t.Fatalf("next connection: %+v", resp)
	}
	ts.Close() // before reading the log: the loop's goroutines are gone
	if !strings.Contains(logged.String(), "panic serving") || !strings.Contains(logged.String(), "boom") {
		t.Fatalf("panic not logged: %q", logged.String())
	}
}

// TestLoopDrain is the SIGTERM path on loop connections: the request in
// flight completes (and says the connection is closing), idle
// connections close, and serveListener returns nil inside the budget.
func TestLoopDrain(t *testing.T) {
	entered, release := make(chan struct{}), make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, _ *http.Request) {
		close(entered)
		<-release
		io.WriteString(w, "drained\n")
	})
	mux.HandleFunc("/fine", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, "fine\n") })
	ts := startFrontend(t, "loop", mux, 10*time.Second)

	idle := dialRaw(t, ts)
	defer idle.Close()
	io.WriteString(idle, plainGet("/fine"))
	idleReader := bufio.NewReader(idle)
	if resp := readRaw(t, idleReader, "GET"); resp.status != 200 {
		t.Fatalf("status %d", resp.status)
	}
	busy := dialRaw(t, ts)
	defer busy.Close()
	io.WriteString(busy, plainGet("/slow"))
	<-entered

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ts.Close() // cancels, waits for serveListener, fails the test on a non-nil return
	}()
	if _, err := idleReader.ReadByte(); err != io.EOF {
		t.Fatalf("idle connection during the drain: %v, want EOF", err)
	}
	close(release)
	resp := readRaw(t, bufio.NewReader(busy), "GET")
	if resp.status != 200 || resp.body != "drained\n" || !resp.closing {
		t.Fatalf("in-flight request during the drain: %+v", resp)
	}
	wg.Wait()
	if _, err := net.DialTimeout("tcp", ts.addr, time.Second); err == nil {
		t.Fatal("the listener still accepts after the drain")
	}
}

// estimateAllocations reports what one plain GET /estimate (a cached
// answer) allocates end to end on a server running h behind the named
// front-end. The client side writes and reads fixed buffers, so every
// allocation counted is the server's.
func estimateAllocations(t *testing.T, frontend string, h http.Handler) float64 {
	ts := startFrontend(t, frontend, h, 10*time.Second)
	defer ts.Close()
	conn := dialRaw(t, ts)
	defer conn.Close()
	req := []byte(goClientGet)
	req = bytes.Replace(req, []byte("u=17&v=903"), []byte("u=17&v=33"), 1)
	answer := make([]byte, 4096)
	roundTrip := func(n int) int {
		if _, err := conn.Write(req); err != nil {
			t.Fatal(err)
		}
		if n == 0 { // first answer: its length is every later answer's
			n, err := conn.Read(answer)
			if err != nil {
				t.Fatal(err)
			}
			return n
		}
		if _, err := io.ReadFull(conn, answer[:n]); err != nil {
			t.Fatal(err)
		}
		return n
	}
	n := 0
	for i := 0; i < 3; i++ { // computed (once per replica); every later answer is the cached one
		n = roundTrip(0)
	}
	if !bytes.Contains(answer[:n], []byte(`"cached":true`)) {
		t.Fatalf("%s: unexpected answer %q", frontend, answer[:n])
	}
	return testing.AllocsPerRun(200, func() { roundTrip(n) })
}

// TestLoopAllocations pins what one plain GET /estimate allocates end to
// end on the server — reading, matching, the handler, the engine's
// cached answer, the response — and holds it to a quarter of the same
// request through net/http.
func TestLoopAllocations(t *testing.T) {
	loop := estimateAllocations(t, "loop", newServer(testEngine(t)))
	direct := estimateAllocations(t, "nethttp", newServer(testEngine(t)))
	t.Logf("allocations per GET /estimate: loop %.1f, net/http %.1f", loop, direct)
	if loop > 3 {
		t.Errorf("the loop allocates %.1f times per request, want at most 3", loop)
	}
	if loop*4 > direct {
		t.Errorf("the loop allocates %.1f times per request, net/http %.1f: want at most a quarter", loop, direct)
	}
}

// TestFleetLoopAllocations pins the same request against a replicated
// in-process fleet (an intra-shard pair, so the answer comes through the
// replica set): the inline read and the appended body leave it one
// above the single engine's 2. Hedged and marshalled it was 12.
//
// Under -race the limit is 5. The detector's sync.Pool drops one Put in
// four at random, so about a quarter of requests rebuild writeAnswer's
// pooled scratch: the scratch itself and six growths of its body, seven
// allocations. That is 3 + 7/4 on average, and AllocsPerRun's truncated
// mean over 200 requests reads 4, or 5 about one run in eight.
func TestFleetLoopAllocations(t *testing.T) {
	fleet, err := shard.NewFleet(shard.Config{
		Oracle:   oracle.Config{Workload: "cube", N: 48, Seed: 1, MemberStride: 3},
		Shards:   2,
		Replicas: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	got := estimateAllocations(t, "loop", newFleetServer(fleet, 1))
	t.Logf("allocations per fleet GET /estimate through the loop: %.1f", got)
	limit := 3.0
	if raceEnabled {
		limit = 5
	}
	if got > limit {
		t.Errorf("a fleet GET /estimate allocates %.1f times per request, want at most %.0f", got, limit)
	}
}
