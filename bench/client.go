package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// wireConn counts the bytes of one connection in both directions: the
// exact request and response sizes on the socket, headers included.
type wireConn struct {
	net.Conn
	sent, recv *atomic.Int64
}

func (c wireConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.recv.Add(int64(n))
	return n, err
}

func (c wireConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.sent.Add(int64(n))
	return n, err
}

// client is one keep-alive HTTP/1.1 connection to ringsrv. It is used by
// one goroutine at a time.
type client struct {
	base       string
	hc         *http.Client
	sent, recv atomic.Int64
	body       []byte
	raw        bytes.Buffer
}

func newClient(base string) *client {
	c := &client{base: base}
	dialer := &net.Dialer{Timeout: 5 * time.Second}
	c.hc = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				conn, err := dialer.DialContext(ctx, network, addr)
				if err != nil {
					return nil, err
				}
				return wireConn{Conn: conn, sent: &c.sent, recv: &c.recv}, nil
			},
		},
	}
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// encode renders the request line (and body, for POSTs) of r.
func (c *client) encode(r *request) (method, url string, body []byte) {
	b := append(c.body[:0], c.base...)
	switch r.kind {
	case kEstimate:
		b = append(b, "/estimate?u="...)
		b = strconv.AppendInt(b, int64(r.u), 10)
		b = append(b, "&v="...)
		b = strconv.AppendInt(b, int64(r.v), 10)
	case kNearest:
		b = append(b, "/nearest?target="...)
		b = strconv.AppendInt(b, int64(r.u), 10)
	case kRoute:
		b = append(b, "/route?src="...)
		b = strconv.AppendInt(b, int64(r.u), 10)
		b = append(b, "&dst="...)
		b = strconv.AppendInt(b, int64(r.v), 10)
	case kLookup:
		b = append(b, "/lookup?object="...)
		b = append(b, objectName(r.obj)...)
		b = append(b, "&from="...)
		b = strconv.AppendInt(b, int64(r.u), 10)
	case kBatch:
		b = append(b, "/batch"...)
	case kPublish:
		b = append(b, "/publish"...)
	case kUnpublish:
		b = append(b, "/unpublish"...)
	case kJoin:
		b = append(b, "/join"...)
	case kLeave:
		b = append(b, "/leave"...)
	}
	urlLen := len(b)
	switch r.kind {
	case kBatch:
		b = append(b, `{"pairs":[`...)
		for i, p := range r.pairs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"u":`...)
			b = strconv.AppendInt(b, int64(p.U), 10)
			b = append(b, `,"v":`...)
			b = strconv.AppendInt(b, int64(p.V), 10)
			b = append(b, '}')
		}
		b = append(b, "]}"...)
	case kPublish, kUnpublish:
		b = append(b, `{"object":"`...)
		b = append(b, objectName(r.obj)...)
		b = append(b, `","node":`...)
		b = strconv.AppendInt(b, int64(r.u), 10)
		b = append(b, '}')
	case kJoin, kLeave:
		b = append(b, `{"base":`...)
		b = strconv.AppendInt(b, int64(r.u), 10)
		b = append(b, '}')
	}
	c.body = b
	if len(b) == urlLen {
		return http.MethodGet, string(b), nil
	}
	return http.MethodPost, string(b[:urlLen]), b[urlLen:]
}

// do sends r and decodes the response into ans. It records the spans
// client.encode, client.roundtrip and client.decode under parent when tr
// is on. An error is a transport failure or an undecodable body; a
// non-200 status is reported in ans, not as an error.
func (c *client) do(r *request, ans *answer, tr *tracer, reqID, parent int64) error {
	sp := tr.begin(reqID, parent)
	method, url, body := c.encode(r)
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	hreq, err := http.NewRequest(method, url, rd)
	tr.end(sp, "client.encode")
	if err != nil {
		return err
	}
	if body != nil {
		hreq.Header.Set("Content-Type", "application/json")
	}

	sp = tr.begin(reqID, parent)
	resp, err := c.hc.Do(hreq)
	if err == nil {
		c.raw.Reset()
		_, err = c.raw.ReadFrom(resp.Body)
		resp.Body.Close()
	}
	tr.end(sp, "client.roundtrip")
	if err != nil {
		return err
	}

	sp = tr.begin(reqID, parent)
	err = decodeAnswer(r.kind, resp.StatusCode, c.raw.Bytes(), ans)
	tr.end(sp, "client.decode")
	return err
}

// decodeAnswer parses a response body into the field of ans that
// matches the request kind (or the error code on a non-200).
func decodeAnswer(k kind, status int, raw []byte, ans *answer) error {
	ans.status = status
	if status != http.StatusOK {
		var eb struct {
			Code string `json:"code"`
		}
		if err := json.Unmarshal(raw, &eb); err != nil {
			return fmt.Errorf("status %d with an undecodable body: %v", status, err)
		}
		ans.code = eb.Code
		return nil
	}
	var into any
	switch k {
	case kEstimate:
		into = &ans.est
	case kBatch:
		into = &struct {
			Results *[]estimateAns `json:"results"`
		}{&ans.batch}
	case kNearest:
		into = &ans.near
	case kRoute:
		into = &ans.route
	case kLookup:
		into = &ans.look
	case kPublish, kUnpublish:
		into = &ans.pub
	case kJoin, kLeave:
		into = &ans.mut
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: undecodable 200 body: %v", k, err)
	}
	return nil
}
