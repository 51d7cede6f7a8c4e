package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync"

	"rings/internal/oracle"
	"rings/internal/shard"
)

// The /batch body contract. One shape is accepted,
//
//	{"pairs":[{"u":U,"v":V},...]}
//
// with JSON whitespace allowed between any two tokens, "u" and "v" in
// either order, and U, V plain integers (an optional minus sign, no
// fraction, no exponent, no leading zeros) that fit an int. Everything
// else is a 400: a body over maxBatchBody, anything but whitespace after
// the closing brace, a key other than those three (names are matched
// byte for byte — no escapes, no case folding), a repeated or missing
// "pairs", "u" or "v", null anywhere, more than maxBatchPairs pairs. That
// is stricter than encoding/json, which this replaced, on purpose: every
// body it accepts, encoding/json accepts and reads as the same pairs
// (FuzzDecodeBatch holds it to that), and the bodies it newly refuses
// were being answered as if they said something else.
const (
	// maxBatchPairs bounds one /batch request so a single client cannot
	// monopolize the engine with an arbitrarily large body.
	maxBatchPairs = 4096
	// maxBatchBody bounds the bytes read for one /batch request.
	maxBatchBody = 1 << 22
)

// batchScratch is the working memory of one /batch (or single-engine
// /estimate) request — the body as read, the pairs parsed from it, the
// slice Engine.EstimateBatchInto answers into and the response as
// appended — pooled so a steady stream stops allocating (and zeroing) all
// four per request. The caps bound what a pooled scratch can hold on to;
// the pool itself is emptied by the collector.
type batchScratch struct {
	req     bytes.Buffer
	pairs   []oracle.Pair
	results []oracle.EstimateResult
	body    []byte
}

var batchPool = sync.Pool{New: func() any { return new(batchScratch) }}

// readPairs reads a /batch body whole and parses it into the scratch's
// pair slice. Every error is a client error.
func (sc *batchScratch) readPairs(body io.Reader) ([]oracle.Pair, error) {
	sc.req.Reset()
	if _, err := sc.req.ReadFrom(io.LimitReader(body, maxBatchBody+1)); err != nil {
		return nil, fmt.Errorf("invalid batch body: %v", err)
	}
	if sc.req.Len() > maxBatchBody {
		return nil, fmt.Errorf("batch body exceeds %d MiB", maxBatchBody>>20)
	}
	pairs, err := decodeBatch(sc.req.Bytes(), sc.pairs)
	sc.pairs = pairs[:0]
	if err != nil {
		return nil, fmt.Errorf("invalid batch body: %w", err)
	}
	return pairs, nil
}

// batchScanner is a cursor over a /batch body.
type batchScanner struct {
	b []byte
	i int
}

// errAt reports what the scanner wanted at its cursor.
func (s *batchScanner) errAt(want string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("offset %d: want %s, found the end of the body", s.i, want)
	}
	return fmt.Errorf("offset %d: want %s, found %q", s.i, want, s.b[s.i])
}

// space skips JSON whitespace.
func (s *batchScanner) space() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// token skips whitespace and consumes the literal lit, or fails.
func (s *batchScanner) token(lit string) error {
	s.space()
	if !s.at(lit) {
		return s.errAt("'" + lit + "'")
	}
	s.i += len(lit)
	return nil
}

// at reports whether lit sits at the cursor.
func (s *batchScanner) at(lit string) bool {
	return len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit
}

// peek skips whitespace and reports the next byte (0 at the end).
func (s *batchScanner) peek() byte {
	s.space()
	if s.i < len(s.b) {
		return s.b[s.i]
	}
	return 0
}

// integer consumes a JSON number that is an integer fitting an int.
func (s *batchScanner) integer() (int, error) {
	s.space()
	neg := s.i < len(s.b) && s.b[s.i] == '-'
	if neg {
		s.i++
	}
	first := s.i
	n := 0
	for ; s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9'; s.i++ {
		d := int(s.b[s.i] - '0')
		if n > (math.MaxInt-d)/10 {
			return 0, fmt.Errorf("offset %d: integer out of range", first)
		}
		n = n*10 + d
	}
	switch {
	case s.i == first:
		return 0, s.errAt("an integer")
	case s.b[first] == '0' && s.i > first+1:
		return 0, fmt.Errorf("offset %d: integer with a leading zero", first)
	case s.i < len(s.b) && (s.b[s.i] == '.' || s.b[s.i] == 'e' || s.b[s.i] == 'E'):
		return 0, fmt.Errorf("offset %d: number is not an integer", first)
	}
	if neg {
		n = -n
	}
	return n, nil
}

// pair consumes one {"u":U,"v":V} object, keys in either order.
func (s *batchScanner) pair() (p oracle.Pair, err error) {
	if err := s.token("{"); err != nil {
		return p, err
	}
	var haveU, haveV bool
	for k := 0; k < 2; k++ {
		if k > 0 {
			if err := s.token(","); err != nil {
				return p, err
			}
		}
		s.space()
		var dst *int
		switch {
		case !haveU && s.at(`"u"`):
			dst, haveU = &p.U, true
		case !haveV && s.at(`"v"`):
			dst, haveV = &p.V, true
		default:
			return p, s.errAt(`one "u" and one "v"`)
		}
		s.i += len(`"u"`)
		if err := s.token(":"); err != nil {
			return p, err
		}
		if *dst, err = s.integer(); err != nil {
			return p, err
		}
	}
	return p, s.token("}")
}

// decodeBatch parses a /batch body (see the contract at the top of this
// file) into buf's room, growing it as needed. It stops at pair
// maxBatchPairs+1.
func decodeBatch(body []byte, buf []oracle.Pair) ([]oracle.Pair, error) {
	s := batchScanner{b: body}
	pairs := buf[:0]
	for _, lit := range []string{"{", `"pairs"`, ":", "["} {
		if err := s.token(lit); err != nil {
			return pairs, err
		}
	}
	if s.peek() != ']' {
		for {
			if len(pairs) == maxBatchPairs {
				return pairs, fmt.Errorf("more than %d pairs", maxBatchPairs)
			}
			p, err := s.pair()
			if err != nil {
				return pairs, err
			}
			pairs = append(pairs, p)
			if s.peek() != ',' {
				break
			}
			s.i++
		}
	}
	for _, lit := range []string{"]", "}"} {
		if err := s.token(lit); err != nil {
			return pairs, err
		}
	}
	if s.space(); s.i < len(s.b) {
		return pairs, s.errAt("nothing after the closing brace")
	}
	return pairs, nil
}

// errNonFinite is what an estimate with a NaN or infinite bound encodes
// to: JSON has no such number, and encoding/json refuses it the same way.
var errNonFinite = errors.New("estimate has a non-finite bound, which JSON cannot carry")

// appendJSONFloat appends f the way encoding/json writes a float64:
// shortest round-trip digits, in 'f' form unless the exponent is below
// -6 or at least 21, and then with a two-digit negative exponent cut to
// one (e-09 becomes e-9).
func appendJSONFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, errNonFinite
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

// appendInt and appendFloat append one `"key":value` member; key carries
// its own punctuation.
func appendInt(b []byte, key string, n int64) []byte {
	return strconv.AppendInt(append(b, key...), n, 10)
}

func appendFloat(b []byte, key string, f float64) ([]byte, error) {
	return appendJSONFloat(append(b, key...), f)
}

// appendEstimateResult appends r as the JSON object encoding/json makes
// of an oracle.EstimateResult, byte for byte.
func appendEstimateResult(b []byte, r *oracle.EstimateResult) ([]byte, error) {
	b = appendInt(b, `{"u":`, int64(r.U))
	b = appendInt(b, `,"v":`, int64(r.V))
	b, err := appendFloat(b, `,"lower":`, r.Lower)
	if err == nil {
		b, err = appendFloat(b, `,"upper":`, r.Upper)
	}
	b = strconv.AppendBool(append(b, `,"ok":`...), r.OK)
	b = appendInt(b, `,"version":`, r.Version)
	return append(strconv.AppendBool(append(b, `,"cached":`...), r.Cached), '}'), err
}

// appendPath appends ,"path": and the ids the way encoding/json writes a
// []int: null for a nil slice, [] for an empty one.
func appendPath(b []byte, path []int) []byte {
	b = append(b, `,"path":`...)
	if path == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, id := range path {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendFleetTail turns the oracle result that ends b into the
// shard.NearestResult or shard.RouteResult embedding it: the owning
// shard and the epoch go in before its closing brace.
func appendFleetTail(b []byte, shard int, epoch int64) []byte {
	b = appendInt(b[:len(b)-1], `,"shard":`, int64(shard))
	return append(appendInt(b, `,"epoch":`, epoch), '}')
}

// appendFleetEstimate appends r as the JSON object encoding/json makes
// of a shard.EstimateResult, byte for byte.
func appendFleetEstimate(b []byte, r *shard.EstimateResult) ([]byte, error) {
	b, err := appendEstimateResult(b, &r.EstimateResult)
	b = appendInt(b[:len(b)-1], `,"ushard":`, int64(r.UShard))
	b = appendInt(b, `,"vshard":`, int64(r.VShard))
	b = strconv.AppendBool(append(b, `,"cross":`...), r.Cross)
	return append(appendInt(b, `,"epoch":`, r.Epoch), '}'), err
}

// appendNearestResult appends r as encoding/json's oracle.NearestResult.
func appendNearestResult(b []byte, r *oracle.NearestResult) ([]byte, error) {
	b = appendInt(b, `{"target":`, int64(r.Target))
	b = appendInt(b, `,"member":`, int64(r.Member))
	b, err := appendFloat(b, `,"dist":`, r.Dist)
	b = appendPath(appendInt(b, `,"hops":`, int64(r.Hops)), r.Path)
	return append(appendInt(b, `,"version":`, r.Version), '}'), err
}

// appendRouteResult appends r as encoding/json's oracle.RouteResult.
func appendRouteResult(b []byte, r *oracle.RouteResult) ([]byte, error) {
	b = appendInt(b, `{"src":`, int64(r.Src))
	b = appendPath(appendInt(b, `,"dst":`, int64(r.Dst)), r.Path)
	b, err := appendFloat(b, `,"length":`, r.Length)
	if err == nil {
		b, err = appendFloat(b, `,"dist":`, r.Dist)
	}
	if err == nil {
		b, err = appendFloat(b, `,"stretch":`, r.Stretch)
	}
	b = appendInt(b, `,"hops":`, int64(r.Hops))
	return append(appendInt(b, `,"version":`, r.Version), '}'), err
}

// appendBatchResponse appends the single-engine /batch response body,
// {"results":[...]} and a newline.
func appendBatchResponse(b []byte, results []oracle.EstimateResult) ([]byte, error) {
	var err error
	b = append(b, `{"results":[`...)
	for i := range results {
		if i > 0 {
			b = append(b, ',')
		}
		if b, err = appendEstimateResult(b, &results[i]); err != nil {
			return b, err
		}
	}
	return append(b, "]}\n"...), nil
}
