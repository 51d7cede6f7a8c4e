package main

import (
	"bytes"
	"context"
	"log"
	"net"
	"net/http"
	"net/url"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rings/internal/telemetry"
)

// The connection loop (DESIGN §6 has the grammar and the reasons). A
// connLoop accepts every connection and answers the requests matchHead
// proves plain by calling the same http.Handler net/http would. The
// first request on a connection that is not plain ends the loop's part:
// the connection, unconsumed bytes replayed, comes out of Accept and an
// http.Server serves it from then on, so the loop never answers for HTTP
// itself (no 400, no 431, no chunked bodies, no HTTP/1.0).

const (
	// maxHead bounds a plain request's head, blank line included.
	maxHead = 4 << 10
	// keepBuf bounds the buffers a large request may leave pinned to an
	// idle connection.
	keepBuf = 64 << 10
	// fixedHead bounds what putHead writes besides the handler's headers:
	// status line 46, Date 37, Content-Length 37, Connection 19, CRLF 2.
	fixedHead = 160
)

var (
	mHTTPRequests = telemetry.Default.CounterFamily("rings_http_requests_total",
		"Requests that reached the handlers, by the front-end that read them.",
		"frontend", "loop", "nethttp")
	mLoopRequests    = mHTTPRequests.With("loop")
	mNetHTTPRequests = mHTTPRequests.With("nethttp")
	mHandoffs        = telemetry.Default.CounterFamily("rings_http_handoffs_total",
		"Connections the loop handed to net/http, by what made a request not plain.",
		"reason", "method", "version", "framing", "target", "head_size", "debug")

	getSP, postSP, http11, debugDir = []byte("GET "), []byte("POST "), []byte("HTTP/1.1"), []byte("/debug/")
	hdrHost, hdrLength              = []byte("Host"), []byte("Content-Length")
	// hdrRefused name the framing and negotiation net/http must do.
	hdrRefused = [][]byte{[]byte("Connection"), []byte("Transfer-Encoding"), []byte("Expect"), []byte("Upgrade"), []byte("Trailer")}
	// separators are the visible ASCII bytes that are not RFC 9110 tchar.
	separators = []byte("\"(),/:;<=>?@[\\]{}")
)

// plainHead is a matched request head; path and query alias the bytes
// given to matchHead. size is 0 until the whole head has arrived.
type plainHead struct {
	method        string
	path, query   []byte
	bodyLen, size int
}

// matchHead decides whether b starts with a plain request. It returns
// the head with size > 0 when it does; size 0 and no reason when more
// bytes are needed to tell; and otherwise the hand-off reason. Plain is
//
//	GET|POST SP target SP "HTTP/1.1" CRLF *(name ":" OWS value OWS CRLF) CRLF
//
// in at most maxHead bytes, every line ending in CRLF; target in origin
// form, bytes 0x21–0x7E, without '%', '+', '#', "//" or "/." and not
// under /debug/; names tokens, values free of control bytes other than
// HTAB; exactly one Host, of letters, digits and ".-:[]_"; no Connection,
// Transfer-Encoding, Expect, Upgrade or Trailer; Content-Length exactly
// once on POST and never on GET, a canonical decimal ≤ maxBatchBody.
//
//ringvet:hotpath
func matchHead(b []byte) (h plainHead, reason string) {
	eol := bytes.IndexByte(b, '\n')
	if eol < 1 || b[eol-1] != '\r' {
		return h, undecided(b, eol)
	}
	line := b[:eol-1]
	switch {
	case bytes.HasPrefix(line, getSP):
		h.method, line = http.MethodGet, line[len(getSP):]
	case bytes.HasPrefix(line, postSP):
		h.method, line = http.MethodPost, line[len(postSP):]
	default:
		return h, "method"
	}
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || !bytes.Equal(line[sp+1:], http11) {
		return h, "version"
	}
	target := line[:sp]
	if len(target) == 0 || target[0] != '/' {
		return h, "target"
	}
	query := len(target)
	for i, c := range target {
		switch {
		case c < 0x21 || c > 0x7e || c == '%' || c == '+' || c == '#',
			c == '/' && i+1 < len(target) && (target[i+1] == '/' || target[i+1] == '.'):
			return h, "target"
		case c == '?' && query == len(target):
			query = i
		}
	}
	h.path = target[:query]
	if query < len(target) {
		h.query = target[query+1:]
	}
	if bytes.HasPrefix(h.path, debugDir) {
		return h, "debug"
	}

	pos, hosts, lengths := eol+1, 0, 0
	for {
		eol = bytes.IndexByte(b[pos:], '\n')
		if eol < 1 || b[pos+eol-1] != '\r' {
			return h, undecided(b, eol)
		}
		line, pos = b[pos:pos+eol-1], pos+eol+1
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon <= 0 {
			return h, "framing"
		}
		name, val := line[:colon], bytes.Trim(line[colon+1:], " \t")
		for i, c := range line {
			if i < colon && (c <= ' ' || c >= 0x7f || bytes.IndexByte(separators, c) >= 0) ||
				i > colon && (c < ' ' && c != '\t' || c == 0x7f) {
				return h, "framing"
			}
		}
		switch {
		case bytes.EqualFold(name, hdrHost):
			hosts++
			for _, c := range val {
				if l := c | 0x20; (l < 'a' || l > 'z') && (c < '-' || c > ':' || c == '/') && c != '[' && c != ']' && c != '_' {
					return h, "framing"
				}
			}
		case bytes.EqualFold(name, hdrLength):
			lengths++
			if len(val) == 0 || len(val) > 7 || val[0] == '0' && len(val) > 1 {
				return h, "framing"
			}
			for _, c := range val {
				if c < '0' || c > '9' {
					return h, "framing"
				}
				h.bodyLen = h.bodyLen*10 + int(c-'0')
			}
		default:
			for _, refused := range hdrRefused {
				if bytes.EqualFold(name, refused) {
					return h, "framing"
				}
			}
		}
	}
	switch {
	case pos > maxHead:
		return h, "head_size"
	case hosts != 1 || lengths > 1 || (h.method == http.MethodPost) != (lengths == 1) || h.bodyLen > maxBatchBody:
		return h, "framing"
	}
	h.size = pos
	return h, ""
}

// undecided is matchHead's verdict on a line whose LF is at eol: not
// there yet (more bytes, unless maxHead are in), or not after a CR.
//
//ringvet:hotpath
func undecided(b []byte, eol int) string {
	switch {
	case eol >= 0:
		return "framing"
	case len(b) >= maxHead:
		return "head_size"
	}
	return ""
}

// putHead writes a response head into dst, which the caller sized:
// status line, the handler's headers in keys order, Date,
// Content-Length unless bodyLen < 0, Connection: close when the
// connection ends with this response, blank line. It returns the length.
//
//ringvet:hotpath
func putHead(dst []byte, status int, hdr http.Header, keys []string, date []byte, bodyLen int, closing bool) int {
	n := copy(dst, "HTTP/1.1 ")
	n = len(strconv.AppendInt(dst[:n], int64(status), 10))
	n += copy(dst[n:], " ")
	n += copy(dst[n:], http.StatusText(status))
	for _, k := range keys {
		for _, v := range hdr[k] {
			n += copy(dst[n:], "\r\n")
			n += copy(dst[n:], k)
			n += copy(dst[n:], ": ")
			n += copy(dst[n:], v)
		}
	}
	n += copy(dst[n:], "\r\nDate: ")
	n += copy(dst[n:], date)
	if bodyLen >= 0 {
		n += copy(dst[n:], "\r\nContent-Length: ")
		n = len(strconv.AppendInt(dst[:n], int64(bodyLen), 10))
	}
	if closing {
		n += copy(dst[n:], "\r\nConnection: close")
	}
	return n + copy(dst[n:], "\r\n\r\n")
}

// Connection states. Shutdown closes a connection only by winning the
// idle → closed exchange, so it never cuts a request that has begun.
const (
	connIdle int32 = iota
	connBusy
	connClosed
)

// loopResponse is the loop's ResponseWriter: it holds the answer until
// the handler returns.
type loopResponse struct {
	hdr    http.Header
	status int // 0 until WriteHeader or the first Write
	body   []byte
}

func (w *loopResponse) Header() http.Header { return w.hdr }

func (w *loopResponse) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *loopResponse) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.body = append(w.body, p...)
	return len(p), nil
}

// loopConn is one connection and everything a request on it needs,
// reused from request to request: handlers must not keep r or its body
// after they return (the http.Handler contract).
type loopConn struct {
	net.Conn
	state atomic.Int32
	buf   []byte // unconsumed bytes are buf[:n]
	n     int
	timed bool // a read deadline is set
	req   http.Request
	url   url.URL
	body  bodyReader
	resp  loopResponse
	keys  []string
	out   []byte
	date  []byte // the Date header's value at second sec, formatted once
	sec   int64
}

// bodyReader is a request body over bytes already read.
type bodyReader struct{ bytes.Reader }

func (*bodyReader) Close() error { return nil }

// replayConn is a handed-off connection: what the loop had read and not
// consumed is read again first.
type replayConn struct {
	net.Conn
	pending []byte
}

func (c *replayConn) Read(p []byte) (int, error) {
	if len(c.pending) > 0 {
		n := copy(p, c.pending)
		c.pending = c.pending[n:]
		return n, nil
	}
	return c.Conn.Read(p)
}

// CloseWrite keeps net/http's lingering close (FIN, wait, close) after
// an error response, which it finds by this method.
func (c *replayConn) CloseWrite() error {
	if cw, ok := c.Conn.(interface{ CloseWrite() error }); ok {
		return cw.CloseWrite()
	}
	return nil
}

// connLoop owns the listening socket. It is the net.Listener an
// http.Server serves: Accept yields the handed-off connections.
type connLoop struct {
	ln       net.Listener
	closeLn  func() error // ln.Close, once
	handler  http.Handler
	timeout  time.Duration // for the rest of a request once its first byte is in; 0 = none
	handoff  chan net.Conn
	accErr   chan error
	done     chan struct{} // closed by Close: nobody calls Accept any more
	doneOnce sync.Once
	draining atomic.Bool
	mu       sync.Mutex
	conns    map[*loopConn]struct{}
	wg       sync.WaitGroup // the accept goroutine and every loop connection
}

func newConnLoop(ln net.Listener, handler http.Handler, timeout time.Duration) *connLoop {
	l := &connLoop{ln: ln, closeLn: sync.OnceValue(ln.Close), handler: handler, timeout: timeout,
		handoff: make(chan net.Conn), accErr: make(chan error), done: make(chan struct{}),
		conns: make(map[*loopConn]struct{})}
	l.wg.Add(1)
	go l.acceptLoop()
	return l
}

func (l *connLoop) acceptLoop() {
	defer l.wg.Done()
	for {
		nc, err := l.ln.Accept()
		if err != nil {
			if l.draining.Load() {
				return
			}
			// http.Server.Serve owns the policy: it pauses and calls
			// Accept again after a temporary error, or returns.
			select {
			case l.accErr <- err:
				continue
			case <-l.done:
				return
			}
		}
		c := &loopConn{Conn: nc, buf: make([]byte, maxHead), resp: loopResponse{hdr: http.Header{}}}
		c.req = http.Request{Proto: "HTTP/1.1", ProtoMajor: 1, ProtoMinor: 1, URL: &c.url,
			Header: http.Header{}, RemoteAddr: nc.RemoteAddr().String()}
		l.mu.Lock()
		l.conns[c] = struct{}{}
		l.mu.Unlock()
		l.wg.Add(1)
		go l.serve(c)
	}
}

func (l *connLoop) Accept() (net.Conn, error) {
	select {
	case c := <-l.handoff:
		return c, nil
	case err := <-l.accErr:
		return nil, err
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *connLoop) Close() error {
	l.doneOnce.Do(func() { close(l.done) })
	return l.closeLn()
}

func (l *connLoop) Addr() net.Addr { return l.ln.Addr() }

// drain stops accepting, closes idle loop connections and waits, while
// ctx lasts, for the busy ones to answer the request they are in (each
// closes after it). Handed-off connections are the http.Server's.
func (l *connLoop) drain(ctx context.Context) error {
	l.draining.Store(true)
	_ = l.closeLn() // Close reports the error
	l.mu.Lock()
	for c := range l.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) {
			c.Close()
		}
	}
	l.mu.Unlock()
	drained := make(chan struct{})
	go func() { l.wg.Wait(); close(drained) }()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// serve runs one connection until it closes or is handed off.
func (l *connLoop) serve(c *loopConn) {
	defer l.wg.Done()
	keep, handedOff := true, false
	for keep {
		h, reason := matchHead(c.buf[:c.n])
		switch need := h.size + h.bodyLen; {
		case reason != "":
			mHandoffs.With(reason).Inc()
			c.deadline(0)
			select {
			case l.handoff <- &replayConn{Conn: c.Conn, pending: c.buf[:c.n]}:
				handedOff = true
			case <-l.done:
			}
			keep = false
		case h.size == 0:
			keep = l.fill(c, 0)
		case c.n < need:
			keep = l.fill(c, need)
		default:
			c.deadline(0)
			keep = l.respond(c, h)
			c.n = copy(c.buf, c.buf[need:c.n])
			if len(c.buf)+cap(c.out) > keepBuf && c.n <= maxHead {
				c.buf, c.out, c.resp.body = append(make([]byte, 0, maxHead), c.buf[:c.n]...)[:maxHead], nil, nil
			}
		}
	}
	l.mu.Lock()
	delete(l.conns, c)
	l.mu.Unlock()
	if !handedOff {
		c.Close()
	}
}

// deadline bounds the reads of the request in progress to d from now,
// once per request; d = 0 lifts the bound, without a system call when
// there is none (the one-read request).
func (c *loopConn) deadline(d time.Duration) {
	switch {
	case d > 0 && !c.timed:
		c.timed = c.SetReadDeadline(time.Now().Add(d)) == nil
	case d == 0 && c.timed:
		c.timed = c.SetReadDeadline(time.Time{}) != nil
	}
}

// fill reads more of the request at the front of c.buf, which needs
// want bytes in all (0: not known yet). With nothing in hand the
// connection is idle and may wait forever; with a request begun, the
// rest of it is due within l.timeout. It reports whether to go on.
func (l *connLoop) fill(c *loopConn, want int) bool {
	if c.n == 0 {
		c.state.Store(connIdle)
		if l.draining.Load() {
			return false
		}
	} else {
		c.deadline(l.timeout)
	}
	if want > len(c.buf) {
		c.buf = append(make([]byte, 0, want+maxHead), c.buf[:c.n]...)[:want+maxHead]
	}
	m, err := c.Read(c.buf[c.n:])
	if c.n == 0 && m > 0 && !c.state.CompareAndSwap(connIdle, connBusy) {
		return false // closed by drain
	}
	c.n += m
	return err == nil
}

// respond serves the plain request h at the front of c.buf and reports
// whether the connection goes on. A handler panic is logged and ends the
// connection, as under net/http.
func (l *connLoop) respond(c *loopConn, h plainHead) (keep bool) {
	defer func() {
		if p := recover(); p != nil {
			log.Printf("http: panic serving %v: %v\n%s", c.RemoteAddr(), p, debug.Stack())
			keep = false
		}
	}()
	r, w := &c.req, &c.resp
	r.Method = h.method
	if string(h.path) != c.url.Path {
		c.url.Path = string(h.path)
	}
	c.url.RawQuery = string(h.query)
	r.ContentLength, r.Body = int64(h.bodyLen), http.NoBody
	if h.bodyLen > 0 {
		c.body.Reset(c.buf[h.size : h.size+h.bodyLen])
		r.Body = &c.body
	}
	clear(w.hdr)
	w.status, w.body = 0, w.body[:0]
	l.handler.ServeHTTP(w, r)

	w.WriteHeader(http.StatusOK)
	body, bodyLen := w.body, len(w.body)
	if w.status < 200 || w.status == http.StatusNoContent || w.status == http.StatusNotModified {
		body, bodyLen = nil, -1
	} else if bodyLen > 0 && w.hdr["Content-Type"] == nil {
		w.hdr.Set("Content-Type", http.DetectContentType(body))
	}
	need := fixedHead + len(body)
	c.keys = c.keys[:0]
	for k, vv := range w.hdr {
		c.keys = append(c.keys, k)
		for _, v := range vv {
			need += len(k) + len(v) + 4
		}
	}
	slices.Sort(c.keys)
	if cap(c.out) < need {
		c.out = make([]byte, need)
	}
	if now := time.Now(); now.Unix() != c.sec {
		c.sec, c.date = now.Unix(), now.UTC().AppendFormat(c.date[:0], http.TimeFormat)
	}
	closing := l.draining.Load()
	n := putHead(c.out[:need], w.status, w.hdr, c.keys, c.date, bodyLen, closing)
	n += copy(c.out[n:need], body)
	_, err := c.Write(c.out[:n])
	return err == nil && !closing
}
