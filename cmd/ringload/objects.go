// Object-location traffic (-objects FRAC): that fraction of each query
// client's requests goes to the server's object endpoints instead of
// the distance mix. At startup ringload publishes a small catalog of
// named objects; during the run clients issue Zipf-popular GET /lookup
// queries (a few names absorb most of the traffic, the paper's
// popular-object regime), occasionally "move" an object along a random
// trajectory (publish at the new node, then unpublish the old — the
// replica set never empties), and in the middle of the run a
// flash-crowd phase concentrates every lookup on one object. Under
// churn, lookups tolerate the same machine-readable race codes as the
// distance mix (out_of_range, plus no_replica/not_found when a move
// races a server-side republish); everything else fails the run.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"time"
)

// objCount is the size of the published catalog; the Zipf exponent
// skews most lookups onto the first few names.
const (
	objCount = 24
	zipfS    = 1.4
)

// objHealth mirrors the objects block of ringsrv's /healthz body.
type objHealth struct {
	Ready       bool  `json:"ready"`
	Objects     int   `json:"objects"`
	Replicas    int   `json:"replicas"`
	Republishes int64 `json:"republishes"`
}

func objName(i int) string { return fmt.Sprintf("obj-%02d", i) }

// seedObjects publishes the catalog before the run starts: every object
// gets one replica on a random node. Under fleet churn a random global
// id can be dormant (code out_of_range), so each object retries a few
// draws; only an object that cannot be placed at all fails the seed.
// Returns the node each object was published on, indexed by object.
func seedObjects(client *http.Client, base string, n int, rng *rand.Rand) ([]int, error) {
	pos := make([]int, objCount)
	for i := range pos {
		pos[i] = -1
		for attempt := 0; attempt < 16; attempt++ {
			node := rng.Intn(n)
			status, code, err := postPublish(client, base, "/publish", objName(i), node)
			if err != nil {
				return nil, fmt.Errorf("seed %s: %w", objName(i), err)
			}
			if status == http.StatusOK {
				pos[i] = node
				break
			}
			if status == http.StatusBadRequest && code == "out_of_range" {
				continue // dormant id under fleet churn; redraw
			}
			return nil, fmt.Errorf("seed %s on node %d: status %d code %q", objName(i), node, status, code)
		}
		if pos[i] < 0 {
			return nil, fmt.Errorf("seed %s: no active node found in 16 draws", objName(i))
		}
	}
	return pos, nil
}

// postPublish issues one publish/unpublish and returns the status and,
// on a non-200, the machine-readable error code.
func postPublish(client *http.Client, base, path, obj string, node int) (int, string, error) {
	body, err := json.Marshal(map[string]any{"object": obj, "node": node})
	if err != nil {
		return 0, "", err
	}
	resp, err := client.Post(base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, errCode(resp.Body), nil
	}
	io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, "", nil
}

// objectRaceCode reports whether an object-endpoint error code is a
// tolerated churn race: a node id that fell out of range, a move whose
// old holder was already re-placed by a server-side repair, or a name
// caught between that repair's unpublish and re-publish.
func objectRaceCode(code string) bool {
	switch code {
	case "out_of_range", "no_replica", "not_found":
		return true
	}
	return false
}

// doLookup issues one GET /lookup with Zipf-drawn popularity (or the
// flash object during the crowd phase) and verifies what the protocol
// alone guarantees: a certified answer carries a replica node and a
// non-negative distance, and a lookup issued from the queried object's
// own replica must answer that node at distance zero (checked only
// outside churn, where the owner's position cannot go stale).
func (g *generator) doLookup(client *http.Client, n int, rng *rand.Rand, zipf *rand.Zipf, pos []int, clientID int, flash bool) sample {
	idx := int(zipf.Uint64())
	if flash {
		idx = 0
	}
	from := rng.Intn(n)
	selfLookup := false
	// Only this object's owning client knows its true position (other
	// clients' moves would make a shared position stale).
	if !g.verify && g.objClients > 0 && idx%g.objClients == clientID && pos[idx] >= 0 && rng.Intn(4) == 0 {
		from, selfLookup = pos[idx], true
	}
	s := sample{endpoint: "lookup"}
	url := fmt.Sprintf("%s/lookup?object=%s&from=%d", g.base, objName(idx), from)
	start := time.Now()
	resp, err := g.withRetry(rng, &s, func() (*http.Response, error) { return client.Get(url) })
	s.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
	if err != nil {
		s.err = err
		return s
	}
	defer resp.Body.Close()
	s.status = resp.StatusCode
	if resp.StatusCode != http.StatusOK {
		if g.verify && objectRaceCode(errCode(resp.Body)) {
			s.stale = true
			return s
		}
		s.err = fmt.Errorf("status %d", resp.StatusCode)
		return s
	}
	var res struct {
		Node     int     `json:"node"`
		Dist     float64 `json:"dist"`
		Replicas int     `json:"replicas"`
	}
	if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
		s.err = fmt.Errorf("lookup body: %v", derr)
		return s
	}
	if res.Dist < 0 || res.Replicas < 1 {
		s.err = fmt.Errorf("lookup mismatch: node=%d dist=%v replicas=%d", res.Node, res.Dist, res.Replicas)
		return s
	}
	if selfLookup && (res.Node != from || res.Dist != 0) {
		s.err = fmt.Errorf("lookup mismatch: from replica %d answered node=%d dist=%v", from, res.Node, res.Dist)
	}
	return s
}

// doMove advances one object along its trajectory: publish at the next
// node, then unpublish the previous one, so the replica set never
// empties. Each object is moved by exactly one client (idx % clients ==
// this client), so outside churn the remembered position is always the
// true holder; under churn a server-side republish can win the race and
// the unpublish's no_replica answer is tolerated. Mutations never
// retry, mirroring the /join//leave policy.
func (g *generator) doMove(client *http.Client, n int, rng *rand.Rand, pos []int, idx int) sample {
	next := rng.Intn(n)
	prev := pos[idx]
	s := sample{endpoint: "move"}
	start := time.Now()
	status, code, err := postPublish(client, g.base, "/publish", objName(idx), next)
	if err == nil && status == http.StatusOK && prev >= 0 && prev != next {
		pos[idx] = next
		status, code, err = postPublish(client, g.base, "/unpublish", objName(idx), prev)
	}
	s.latencyMs = float64(time.Since(start)) / float64(time.Millisecond)
	s.status = status
	switch {
	case err != nil:
		s.err = err
	case status == http.StatusOK:
	case g.verify && objectRaceCode(code):
		s.stale = true
	default:
		s.err = fmt.Errorf("status %d code %q", status, code)
	}
	return s
}

// objectsReport is the duration-end scrape of /objects/stats folded
// into the run report: the server's own lookup/republish counters,
// whichever mode answered (ringload has no compile-time dependency on
// the server, like health and serverStats).
type objectsReport struct {
	Objects     int   `json:"objects"`
	Replicas    int   `json:"replicas"`
	Lookups     int64 `json:"lookups"`
	NotFound    int64 `json:"not_found"`
	Republishes int64 `json:"republishes"`
}

func fetchObjectsReport(client *http.Client, base string) (*objectsReport, error) {
	resp, err := client.Get(base + "/objects/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("objects/stats: status %d", resp.StatusCode)
	}
	var body struct {
		Single *objectsReport `json:"single"`
		Fleet  *objectsReport `json:"fleet"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("objects/stats: %w", err)
	}
	if body.Fleet != nil {
		return body.Fleet, nil
	}
	if body.Single != nil {
		return body.Single, nil
	}
	return nil, fmt.Errorf("objects/stats: empty body")
}
