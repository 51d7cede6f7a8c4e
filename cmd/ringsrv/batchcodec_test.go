package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"rings/internal/distlabel"
	"rings/internal/metric"
	"rings/internal/oracle"
	"rings/internal/shard"
)

// batchRequest and batchResponse are the encoding/json shapes of the
// /batch body and of the single-engine response: what clients marshal,
// and the reference the hand-written scanner and appender are held to.
type batchRequest struct {
	Pairs []oracle.Pair `json:"pairs"`
}

type batchResponse struct {
	Results []oracle.EstimateResult `json:"results"`
}

// strictDecode is encoding/json reading a /batch body with unknown keys
// refused — the scanner's differential reference.
func strictDecode(body []byte) ([]oracle.Pair, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req batchRequest
	err := dec.Decode(&req)
	return req.Pairs, err
}

// ringloadBody builds a /batch body the way cmd/ringload does.
func ringloadBody(t testing.TB, pairs []oracle.Pair) []byte {
	t.Helper()
	type pair struct {
		U int `json:"u"`
		V int `json:"v"`
	}
	ps := make([]pair, len(pairs))
	for i, p := range pairs {
		ps[i] = pair{U: p.U, V: p.V}
	}
	body, err := json.Marshal(map[string]any{"pairs": ps})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// ringperfBody builds a /batch body the way bench/client.go does.
func ringperfBody(pairs []oracle.Pair) []byte {
	b := []byte(`{"pairs":[`)
	for i, p := range pairs {
		if i > 0 {
			b = append(b, ',')
		}
		b = fmt.Appendf(b, `{"u":%d,"v":%d}`, p.U, p.V)
	}
	return append(b, "]}"...)
}

var fixturePairs = []oracle.Pair{{U: 0, V: 1}, {U: 47, V: 3}, {U: 1023, V: 1023}, {U: 5, V: 0}}

// acceptedBodies are well-formed /batch bodies with the pairs they say.
func acceptedBodies(t testing.TB) map[string][]oracle.Pair {
	return map[string][]oracle.Pair{
		string(ringloadBody(t, fixturePairs)):                   fixturePairs,
		string(ringperfBody(fixturePairs)):                      fixturePairs,
		`{"pairs":[]}`:                                          {},
		`{"pairs":[{"v":2,"u":1}]}`:                             {{U: 1, V: 2}},
		" {\t\"pairs\" :\r\n[ { \"u\" : 1 , \"v\" : 2 } ] } \n": {{U: 1, V: 2}},
		`{"pairs":[{"u":-0,"v":-7}]}`:                           {{U: 0, V: -7}},
		`{"pairs":[{"u":9223372036854775807,"v":0}]}`:           {{U: math.MaxInt64, V: 0}},
	}
}

// rejectedBodies are bodies /batch must answer 400 to, by what is wrong.
var rejectedBodies = map[string]string{
	"trailing garbage":      `{"pairs":[{"u":1,"v":2}]}garbage`,
	"second value":          `{"pairs":[{"u":1,"v":2}]}{}`,
	"unknown top-level key": `{"pairs":[{"u":1,"v":2}],"x":1}`,
	"unknown pair key":      `{"pairs":[{"u":1,"v":2,"w":3}]}`,
	"wrong key":             `{"pears":[{"u":1,"v":2}]}`,
	"folded key":            `{"Pairs":[{"U":1,"V":2}]}`,
	"duplicate u":           `{"pairs":[{"u":1,"u":2}]}`,
	"duplicate v":           `{"pairs":[{"v":1,"u":2,"v":3}]}`,
	"duplicate pairs":       `{"pairs":[],"pairs":[{"u":1,"v":2}]}`,
	"missing v":             `{"pairs":[{"u":1}]}`,
	"missing u":             `{"pairs":[{"v":1}]}`,
	"empty pair":            `{"pairs":[{}]}`,
	"missing pairs":         `{}`,
	"fraction":              `{"pairs":[{"u":1.0,"v":2}]}`,
	"exponent":              `{"pairs":[{"u":1e3,"v":2}]}`,
	"leading zero":          `{"pairs":[{"u":01,"v":2}]}`,
	"bare minus":            `{"pairs":[{"u":-,"v":2}]}`,
	"20-digit integer":      `{"pairs":[{"u":12345678901234567890,"v":2}]}`,
	"string number":         `{"pairs":[{"u":"1","v":2}]}`,
	"null pairs":            `{"pairs":null}`,
	"null pair":             `{"pairs":[null]}`,
	"null value":            `{"pairs":[{"u":null,"v":2}]}`,
	"nested array":          `{"pairs":[[{"u":1,"v":2}]]}`,
	"array body":            `[{"u":1,"v":2}]`,
	"trailing comma":        `{"pairs":[{"u":1,"v":2},]}`,
	"missing comma":         `{"pairs":[{"u":1,"v":2}{"u":1,"v":2}]}`,
	"truncated":             `{"pairs":[{"u":1,"v":2}`,
	"truncated number":      `{"pairs":[{"u":1,"v":`,
	"empty body":            ``,
	"only whitespace":       ` `,
}

// TestDecodeBatch pins the /batch body contract: the two in-tree clients'
// bodies and the documented variations are read as the pairs they say,
// exactly as encoding/json reads them, and every other shape is refused.
func TestDecodeBatch(t *testing.T) {
	for body, want := range acceptedBodies(t) {
		got, err := decodeBatch([]byte(body), nil)
		if err != nil || !slices.Equal(got, want) {
			t.Errorf("decodeBatch(%q) = %v, %v; want %v", body, got, err, want)
		}
		if ref, err := strictDecode([]byte(body)); err != nil || !slices.Equal(ref, want) {
			t.Errorf("encoding/json reads %q as %v, %v; want %v", body, ref, err, want)
		}
	}
	for name, body := range rejectedBodies {
		if got, err := decodeBatch([]byte(body), nil); err == nil {
			t.Errorf("%s: decodeBatch(%q) = %v, want an error", name, body, got)
		}
	}
	// The pairs land in the buffer's room, over whatever it held.
	buf := make([]oracle.Pair, 1, 8)
	got, err := decodeBatch(ringperfBody(fixturePairs), buf)
	if err != nil || !slices.Equal(got, fixturePairs) || &got[0] != &buf[0] {
		t.Errorf("decodeBatch into a buffer with room = %v, %v", got, err)
	}
}

// TestBatchRejectsWhatItUsedToMisread drives the same contract through
// the handler in both server modes: each refused body is a 400 whose
// message starts "invalid batch body", an over-cap body is told so (it
// used to be truncated and blamed for an unexpected EOF), a batch over
// the pair cap is refused without reading on, and the clients' bodies
// are answered.
func TestBatchRejectsWhatItUsedToMisread(t *testing.T) {
	bothFrontends(t, testBatchRejectsWhatItUsedToMisread)
}

func testBatchRejectsWhatItUsedToMisread(t *testing.T, start startFunc) {
	single := start(newServer(testEngine(t)))
	defer single.Close()
	_, fleet := testFleetServer(t, start, false)

	post := func(ts *testServer, body []byte) (int, errorBody) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb errorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil {
				t.Fatalf("decode a %d body: %v", resp.StatusCode, err)
			}
		}
		return resp.StatusCode, eb
	}
	for mode, ts := range map[string]*testServer{"single": single, "fleet": fleet} {
		for name, body := range rejectedBodies {
			status, eb := post(ts, []byte(body))
			if status != http.StatusBadRequest || !strings.HasPrefix(eb.Error, "invalid batch body: ") || eb.Code != "" {
				t.Errorf("%s, %s: status %d, error %+v", mode, name, status, eb)
			}
		}

		pad := bytes.Repeat([]byte{' '}, maxBatchBody)
		status, eb := post(ts, append(pad, `{"pairs":[{"u":1,"v":2}]}`...))
		if status != http.StatusBadRequest || eb.Error != "batch body exceeds 4 MiB" {
			t.Errorf("%s, well-formed body over the cap: status %d, error %+v", mode, status, eb)
		}
		// One byte under the cap the same body is served.
		fits := append(pad[:maxBatchBody-len(`{"pairs":[{"u":1,"v":2}]}`)], `{"pairs":[{"u":1,"v":2}]}`...)
		if status, eb := post(ts, fits); status != http.StatusOK {
			t.Errorf("%s, body of exactly the cap: status %d, error %+v", mode, status, eb)
		}

		many := make([]oracle.Pair, maxBatchPairs+1)
		status, eb = post(ts, ringperfBody(many))
		if status != http.StatusBadRequest || !strings.Contains(eb.Error, "more than 4096 pairs") {
			t.Errorf("%s, %d pairs: status %d, error %+v", mode, len(many), status, eb)
		}
		if status, eb := post(ts, ringperfBody(many[:maxBatchPairs])); status != http.StatusOK {
			t.Errorf("%s, %d pairs: status %d, error %+v", mode, maxBatchPairs, status, eb)
		}
		if status, eb := post(ts, []byte(`{"pairs":[]}`)); status != http.StatusBadRequest || eb.Error != "batch needs at least one pair" {
			t.Errorf("%s, no pairs: status %d, error %+v", mode, status, eb)
		}

		pairs := []oracle.Pair{{U: 1, V: 4}, {U: 3, V: 5}}
		for client, body := range map[string][]byte{"ringload": ringloadBody(t, pairs), "ringperf": ringperfBody(pairs)} {
			if status, eb := post(ts, body); status != http.StatusOK {
				t.Errorf("%s, %s's body: status %d, error %+v", mode, client, status, eb)
			}
		}
	}
}

// FuzzDecodeBatch holds the scanner to encoding/json on arbitrary bytes:
// it never panics or reads past the body, and whatever it accepts, strict
// encoding/json accepts and reads as the same pairs.
func FuzzDecodeBatch(f *testing.F) {
	for body := range acceptedBodies(f) {
		f.Add([]byte(body))
		for cut := 1; cut < len(body); cut += 1 + len(body)/16 {
			f.Add([]byte(body[:cut]))
		}
	}
	for _, body := range rejectedBodies {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		// A body with no spare capacity: a read past it panics.
		body = append(make([]byte, 0, len(body)), body...)
		got, err := decodeBatch(body, nil)
		if err != nil {
			return
		}
		want, err := strictDecode(body)
		if err != nil {
			t.Fatalf("scanner accepts %q as %v, encoding/json refuses it: %v", body, got, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("scanner reads %q as %v, encoding/json as %v", body, got, want)
		}
	})
}

// TestAppendEstimateResultMatchesEncodingJSON: the appender's bytes are
// encoding/json's on floats across the format switch points (1e-6, 1e21,
// exponents that lose a digit), both zeros, and random bit patterns, and
// it refuses a non-finite bound exactly where encoding/json does.
func TestAppendEstimateResultMatchesEncodingJSON(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 9.999999e-7, 1e-7, 1.5e-9, 1e-10, 1e-100,
		1e20, 1e21, 9.99e20, 1.23e25, 1e100, math.MaxFloat64, math.SmallestNonzeroFloat64, 123456.789, 753.7908456345253}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if i%2 == 0 {
			f = rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		}
		floats = append(floats, f)
	}
	floats = append(floats, math.Inf(1), math.Inf(-1), math.NaN())
	for i, f := range floats {
		res := oracle.EstimateResult{U: i, V: -i, Lower: f, Upper: 2.5, OK: i%2 == 0, Version: int64(i) << 20, Cached: i%3 == 0}
		if i%5 == 0 {
			res.Lower, res.Upper = res.Upper, res.Lower
		}
		want, wantErr := json.Marshal(res)
		got, err := appendEstimateResult(nil, &res)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%+v: appender error %v, encoding/json error %v", res, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%+v:\nappended %s\nmarshal  %s", res, got, want)
		}
	}
}

// TestQueryAppendersMatchEncodingJSON: the appenders behind fleet
// /estimate and both modes' /nearest and /route write encoding/json's
// bytes for the struct they stand in for, over a seeded corpus — floats at
// the format switch points, both zeros, subnormals, random bit patterns;
// ids up to the int range; nil, empty and long paths; every flag — and
// refuse exactly the values encoding/json refuses (an ok:false answer's
// infinite bound, NaN), which writeAnswer turns into a 500 "internal".
func TestQueryAppendersMatchEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	edge := []float64{0, math.Copysign(0, -1), 1, -1.5, 1e-6, 9.999999e-7, 1e-7, 1e-10, 1e20, 1e21, 9.99e20, 1.23e25,
		math.MaxFloat64, math.SmallestNonzeroFloat64, 4.9e-320, 753.7908456345253, math.Inf(1), math.Inf(-1), math.NaN()}
	float := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return edge[rng.Intn(len(edge)-3)] // the finite ones
		case 1:
			return rng.ExpFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
		case 2:
			if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
				return f
			}
		}
		return rng.Float64() * 1000
	}
	id := func() int {
		switch rng.Intn(4) {
		case 0:
			return []int{0, -1, math.MaxInt, math.MinInt, math.MaxInt32}[rng.Intn(5)]
		case 1:
			return int(rng.Uint64())
		}
		return rng.Intn(4096)
	}
	path := func() []int {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []int{}
		}
		p := make([]int, 1+rng.Intn(12))
		for i := range p {
			p[i] = id()
		}
		return p
	}
	check := func(what string, v any, got []byte, err error) {
		t.Helper()
		want, wantErr := json.Marshal(v)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%s %+v: appender error %v, encoding/json error %v", what, v, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("%s %+v:\nappended %s\nmarshal  %s", what, v, got, want)
		}
	}
	for i := 0; i < 4000; i++ {
		// One float of each answer walks the edge list, non-finite values
		// included; the rest are drawn finite.
		e := edge[i%len(edge)]
		est := shard.EstimateResult{
			EstimateResult: oracle.EstimateResult{U: id(), V: id(), Lower: float(), Upper: float(), OK: i%2 == 0, Version: int64(id()), Cached: i%3 == 0},
			UShard:         id(), VShard: id(), Cross: i%5 == 0, Epoch: int64(id()),
		}
		if i%2 == 0 {
			est.Upper = e
		} else {
			est.Lower = e
		}
		got, err := appendFleetEstimate(nil, &est)
		check("fleet estimate", est, got, err)

		near := shard.NearestResult{
			NearestResult: oracle.NearestResult{Target: id(), Member: id(), Dist: e, Hops: id(), Path: path(), Version: int64(id())},
			Shard:         id(), Epoch: int64(id()),
		}
		got, err = appendNearestResult(nil, &near.NearestResult)
		check("nearest", near.NearestResult, got, err)
		check("fleet nearest", near, appendFleetTail(got, near.Shard, near.Epoch), err)

		route := shard.RouteResult{
			RouteResult: oracle.RouteResult{Src: id(), Dst: id(), Path: path(), Length: float(), Dist: float(), Stretch: float(), Hops: id(), Version: int64(id())},
			Shard:       id(), Epoch: int64(id()),
		}
		*[]*float64{&route.Length, &route.Dist, &route.Stretch}[i%3] = e
		got, err = appendRouteResult(nil, &route.RouteResult)
		check("route", route.RouteResult, got, err)
		check("fleet route", route, appendFleetTail(got, route.Shard, route.Epoch), err)
	}

	unbounded := shard.EstimateResult{EstimateResult: oracle.EstimateResult{U: 0, V: 1, Upper: math.Inf(1)}, Cross: true}
	rec := httptest.NewRecorder()
	writeAnswer(rec, nil, func(b []byte) ([]byte, error) { return appendFleetEstimate(b, &unbounded) })
	var eb errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &eb); rec.Code != http.StatusInternalServerError || err != nil || eb.Code != codeInternal {
		t.Fatalf("unbounded cross-shard estimate: status %d, body %q; want one 500 %q body", rec.Code, rec.Body, codeInternal)
	}
}

// TestQueryBodiesMatchEncodingJSON: in both modes and behind both
// front-ends, the 200 bodies of /estimate, /nearest and /route are
// encoding/json's of the answer the engine or fleet gives directly, and
// one line.
func TestQueryBodiesMatchEncodingJSON(t *testing.T) {
	bothFrontends(t, testQueryBodiesMatchEncodingJSON)
}

func testQueryBodiesMatchEncodingJSON(t *testing.T, start startFunc) {
	engine, fleet := testEngine(t), testFleet(t, false)
	defer fleet.Close()
	modes := []struct {
		name   string
		h      http.Handler
		direct map[string]func() (any, error)
	}{
		{"single", newServer(engine), map[string]func() (any, error){
			"/nearest?target=3":  func() (any, error) { return engine.Nearest(3) },
			"/route?src=1&dst=5": func() (any, error) { return engine.Route(1, 5) },
		}},
		{"fleet", newFleetServer(fleet, 1), map[string]func() (any, error){
			"/estimate?u=3&v=9":  func() (any, error) { return fleet.Estimate(3, 9) },  // intra-shard, cached by the request
			"/estimate?u=3&v=10": func() (any, error) { return fleet.Estimate(3, 10) }, // cross-shard
			"/nearest?target=4":  func() (any, error) { return fleet.Nearest(4) },
			"/route?src=1&dst=7": func() (any, error) { return fleet.Route(1, 7) },
		}},
	}
	for _, mode := range modes {
		ts := start(mode.h)
		for target, direct := range mode.direct {
			var got []byte
			for i := 0; i < 2; i++ { // the second answer is the one a later direct call repeats
				resp, err := ts.Client().Get(ts.URL + target)
				if err != nil {
					t.Fatal(err)
				}
				got, err = io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" {
					t.Fatalf("%s %s: status %d, %v", mode.name, target, resp.StatusCode, err)
				}
			}
			res, err := direct()
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, append(want, '\n')) {
				t.Errorf("%s %s:\nbody    %s\nmarshal %s", mode.name, target, got, want)
			}
		}
		ts.Close()
	}
}

// TestEstimateBodyMatchesEncodingJSON: GET /estimate on a single engine
// answers through the appender, and the body is encoding/json's of the
// engine's own answer — for a computed answer and for the cached repeat.
func TestEstimateBodyMatchesEncodingJSON(t *testing.T) {
	bothFrontends(t, testEstimateBodyMatchesEncodingJSON)
}

func testEstimateBodyMatchesEncodingJSON(t *testing.T, start startFunc) {
	engine := testEngine(t)
	ts := start(newServer(engine))
	defer ts.Close()
	for _, wantCached := range []bool{false, true} {
		resp, err := ts.Client().Get(ts.URL + "/estimate?u=3&v=17")
		if err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		res, err := engine.Estimate(3, 17) // the engine has the pair cached by now
		if err != nil {
			t.Fatal(err)
		}
		res.Cached = wantCached
		want, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/json" || !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("cached=%v: status %d, body %q, want %q", wantCached, resp.StatusCode, got, want)
		}
	}
}

// TestUnboundedAnswerIsA500NotATruncated200: two labels with no common
// neighbor answer ok:false with an infinite upper bound, which JSON cannot
// carry. Both handlers used to send 200 and then fail to encode; they now
// encode first and answer 500 "internal".
func TestUnboundedAnswerIsA500NotATruncated200(t *testing.T) {
	bothFrontends(t, testUnboundedAnswerIsA500NotATruncated200)
}

func testUnboundedAnswerIsA500NotATruncated200(t *testing.T, start startFunc) {
	space, err := metric.NewMatrix([][]float64{{0, 1}, {1, 0}})
	if err != nil {
		t.Fatal(err)
	}
	disjoint := func() *distlabel.Label { return &distlabel.Label{Zoom0: -1} }
	snap, err := oracle.AssembleSnapshot(oracle.Config{Scheme: oracle.SchemeLabels, SkipOverlay: true, SkipRouting: true}, "disjoint-n2",
		oracle.Artifacts{Idx: metric.NewIndex(space), Labels: []*distlabel.Label{disjoint(), disjoint()}}, 0, oracle.BuildStats{})
	if err != nil {
		t.Fatal(err)
	}
	engine := oracle.NewEngine(snap, oracle.EngineOptions{})
	if res, err := engine.Estimate(0, 1); err != nil || res.OK || !math.IsInf(res.Upper, 1) {
		t.Fatalf("disjoint labels estimate %+v, %v; want ok:false with an infinite upper bound", res, err)
	}
	ts := start(newServer(engine))
	defer ts.Close()

	var eb errorBody
	getJSON(t, ts, "/estimate?u=0&v=1", http.StatusInternalServerError, &eb)
	if eb.Code != codeInternal {
		t.Errorf("/estimate: error %+v, want code %q", eb, codeInternal)
	}
	eb = errorBody{}
	postJSON(t, ts, "/batch", batchRequest{Pairs: []oracle.Pair{{U: 0, V: 0}, {U: 0, V: 1}}}, http.StatusInternalServerError, &eb)
	if eb.Code != codeInternal {
		t.Errorf("/batch: error %+v, want code %q", eb, codeInternal)
	}
}

// TestWriteJSONEncodesBeforeTheStatusLine: every handler in both modes
// answers through writeJSON, so a value JSON cannot carry — the fleet's
// cross-shard estimate with no common beacon, upper = +Inf — must come
// out as one complete 500 "internal" body with nothing ahead of it on
// the wire. It used to be a 200 status line followed by a cut-off body.
func TestWriteJSONEncodesBeforeTheStatusLine(t *testing.T) {
	unbounded := shard.EstimateResult{
		EstimateResult: oracle.EstimateResult{U: 0, V: 1, Upper: math.Inf(1)},
		Cross:          true,
	}
	for _, v := range []any{unbounded, fleetBatchResponse{Results: []shard.EstimateResult{{}, unbounded}}} {
		rec := httptest.NewRecorder()
		writeJSON(rec, http.StatusOK, v)
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%T: status %d, want 500", v, rec.Code)
		}
		dec := json.NewDecoder(rec.Body)
		dec.DisallowUnknownFields()
		var eb errorBody
		if err := dec.Decode(&eb); err != nil {
			t.Fatalf("%T: the 500 body does not start with a decodable error: %v", v, err)
		}
		if eb.Code != codeInternal || eb.Error == "" {
			t.Errorf("%T: error body %+v, want a message with code %q", v, eb, codeInternal)
		}
		if rest, _ := io.ReadAll(io.MultiReader(dec.Buffered(), rec.Body)); len(bytes.TrimSpace(rest)) != 0 {
			t.Errorf("%T: %q follows the error body", v, rest)
		}
	}

	// What does encode is written as before: status, content type, one line.
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusBadRequest, errorBody{Error: "x", Code: codeOutOfRange})
	if rec.Code != http.StatusBadRequest || rec.Header().Get("Content-Type") != "application/json" ||
		rec.Body.String() != `{"error":"x","code":"out_of_range"}`+"\n" {
		t.Errorf("plain response changed: %d %q %q", rec.Code, rec.Header().Get("Content-Type"), rec.Body.String())
	}
}
