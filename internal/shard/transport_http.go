package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"rings/internal/churn"
	"rings/internal/oracle"
)

// httpBackend speaks the existing ringsrv HTTP surface as a Backend: a
// remote single-engine server (one shard served standalone) answers
// the query surface; mutations map to /join and /leave. Snapshot
// shipping is not expressible over this surface (ErrUnsupported) —
// replication across HTTP endpoints rides on per-shard persistence
// plus warm starts instead.
//
// Error translation is code-based (errorBody.Code), never prose-based:
// transport failures — connection errors, timeouts, and any 5xx —
// come back wrapped in ErrUnavailable so breakers and failover
// see them; client error classes map back to the same sentinels the
// local backend returns, which is what lets one conformance suite
// cover both.
type httpBackend struct {
	base   string
	client *http.Client
}

// NewHTTPBackend dials a ringsrv-surface server at baseURL (e.g.
// "http://127.0.0.1:8390"). client may be nil (a 2s-timeout default).
func NewHTTPBackend(baseURL string, client *http.Client) Backend {
	if client == nil {
		client = &http.Client{Timeout: 2 * time.Second}
	}
	return &httpBackend{base: baseURL, client: client}
}

// Remote marks the backend as crossing a network: its shard's reads are
// hedged.
func (b *httpBackend) Remote() bool { return true }

// httpError reconstructs an error class from a non-200 response.
func httpError(endpoint string, status int, body []byte) error {
	var eb struct {
		Error string `json:"error"`
		Code  string `json:"code"`
	}
	_ = json.Unmarshal(body, &eb)
	msg := eb.Error
	if msg == "" {
		msg = fmt.Sprintf("status %d", status)
	}
	if status >= 500 || status == http.StatusServiceUnavailable {
		return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, ErrUnavailable)
	}
	switch eb.Code {
	case "out_of_range":
		return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, oracle.ErrNodeRange)
	case "cross_shard":
		return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, ErrCrossShard)
	case "below_floor":
		return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, churn.ErrBelowFloor)
	case "not_implemented":
		switch endpoint {
		case "route":
			return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, oracle.ErrNoRouter)
		case "nearest":
			return fmt.Errorf("shard: http %s: %s: %w", endpoint, msg, oracle.ErrNoOverlay)
		}
	}
	return fmt.Errorf("shard: http %s (%d): %s", endpoint, status, msg)
}

// do runs one request and decodes a 200 JSON body into out. Transport
// errors wrap ErrUnavailable.
func (b *httpBackend) do(endpoint string, req *http.Request, out any) error {
	resp, err := b.client.Do(req)
	if err != nil {
		return fmt.Errorf("shard: http %s: %v: %w", endpoint, err, ErrUnavailable)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return fmt.Errorf("shard: http %s: read body: %v: %w", endpoint, err, ErrUnavailable)
	}
	if resp.StatusCode != http.StatusOK {
		return httpError(endpoint, resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, out); err != nil {
		return fmt.Errorf("shard: http %s: decode: %v: %w", endpoint, err, ErrUnavailable)
	}
	return nil
}

func (b *httpBackend) get(endpoint string, params url.Values, out any) error {
	u := b.base + "/" + endpoint
	if len(params) > 0 {
		u += "?" + params.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return fmt.Errorf("shard: http %s: %v: %w", endpoint, err, ErrUnavailable)
	}
	return b.do(endpoint, req, out)
}

func (b *httpBackend) post(endpoint string, payload, out any) error {
	buf, err := json.Marshal(payload)
	if err != nil {
		return fmt.Errorf("shard: http %s: encode: %v: %w", endpoint, err, ErrUnavailable)
	}
	req, err := http.NewRequest(http.MethodPost, b.base+"/"+endpoint, bytes.NewReader(buf))
	if err != nil {
		return fmt.Errorf("shard: http %s: %v: %w", endpoint, err, ErrUnavailable)
	}
	req.Header.Set("Content-Type", "application/json")
	return b.do(endpoint, req, out)
}

func intValues(kv ...any) url.Values {
	v := url.Values{}
	for i := 0; i+1 < len(kv); i += 2 {
		v.Set(kv[i].(string), strconv.Itoa(kv[i+1].(int)))
	}
	return v
}

func (b *httpBackend) Estimate(u, v int) (oracle.EstimateResult, error) {
	var out oracle.EstimateResult
	err := b.get("estimate", intValues("u", u, "v", v), &out)
	return out, err
}

func (b *httpBackend) EstimateBatch(pairs []oracle.Pair) ([]oracle.EstimateResult, error) {
	var out struct {
		Results []oracle.EstimateResult `json:"results"`
	}
	err := b.post("batch", map[string]any{"pairs": pairs}, &out)
	return out.Results, err
}

func (b *httpBackend) Nearest(target int) (oracle.NearestResult, error) {
	var out oracle.NearestResult
	err := b.get("nearest", intValues("target", target), &out)
	return out, err
}

func (b *httpBackend) Route(src, dst int) (oracle.RouteResult, error) {
	var out oracle.RouteResult
	err := b.get("route", intValues("src", src, "dst", dst), &out)
	return out, err
}

func (b *httpBackend) Apply(ops []churn.Op) (ApplyResult, error) {
	// The surface commits joins and leaves one POST each; the last
	// commit's version and size describe the final state. Membership
	// (Perm) is not reported over HTTP.
	var last struct {
		Version int64         `json:"version"`
		N       int           `json:"n"`
		Repair  churn.OpStats `json:"repair"`
	}
	for _, op := range ops {
		endpoint := "join"
		if op.Kind == churn.Leave {
			endpoint = "leave"
		}
		base := op.Base
		if err := b.post(endpoint, map[string]any{"base": &base}, &last); err != nil {
			return ApplyResult{}, err
		}
	}
	return ApplyResult{Version: last.Version, N: last.N, Repair: last.Repair}, nil
}

func (b *httpBackend) Ship(data []byte) (int64, error) {
	return 0, fmt.Errorf("shard: the ringsrv surface has no snapshot-shipping endpoint: %w", ErrUnsupported)
}

func (b *httpBackend) Stats() (oracle.EngineStats, error) {
	var out oracle.EngineStats
	err := b.get("stats", nil, &out)
	return out, err
}

func (b *httpBackend) Health() (BackendHealth, error) {
	var out struct {
		OK      bool  `json:"ok"`
		Version int64 `json:"version"`
		N       int   `json:"n"`
	}
	if err := b.get("healthz", nil, &out); err != nil {
		return BackendHealth{}, err
	}
	if !out.OK {
		return BackendHealth{}, fmt.Errorf("shard: http healthz reports not ok: %w", ErrUnavailable)
	}
	return BackendHealth{Version: out.Version, N: out.N}, nil
}

func (b *httpBackend) Close() error {
	b.client.CloseIdleConnections()
	return nil
}
