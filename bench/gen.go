package main

import (
	"math/rand"
	"slices"
)

type pair struct{ U, V int }

// request is one element of a request stream.
type request struct {
	kind kind
	// u, v: the estimate pair; nearest target (u); route src, dst; lookup
	// origin (u); publish/unpublish node (u); join/leave base id (u).
	u, v  int
	obj   int    // lookup, publish, unpublish
	pairs []pair // batch
	salt  int    // batch: which 1-in-16 residue of pairs the verifier samples
}

// answers is how many answers a request carries (pairs of a batch).
func (r *request) answers() int {
	if r.kind == kBatch {
		return len(r.pairs)
	}
	return 1
}

// generator is one client's seeded request stream. The server sees only
// what it emits; everything random about a run comes from here.
type generator struct {
	w     *workload
	truth *truth
	rng   *rand.Rand
	// mutRng draws the churn operations: its own stream, so the query
	// sequence does not depend on when a mutation fell due.
	mutRng *rand.Rand
	n      int
	total  int
	mix    [numKinds]int
	pool   []pair
	poolZ  *rand.Zipf
	objZ   *rand.Zipf
	moving []int
	// queued is the publish half of a move, sent right after its
	// unpublish so the object is back at full replication at once.
	queued *request
}

// newGenerator seeds client's stream from the run seed. Both clients of
// a run share the fleet estimate pool (same pairs, own draws from it).
func newGenerator(w *workload, t *truth, n int, seed int64, client int) *generator {
	g := &generator{
		w:      w,
		truth:  t,
		rng:    rand.New(rand.NewSource(seed*1000003 + int64(client))),
		mutRng: rand.New(rand.NewSource(seed*1000003 + 104729)),
		n:      n,
		mix:    w.mix,
	}
	if client != 0 {
		g.mix[kMove] = 0 // moves are client 0's: one writer keeps the publish log ordered
	}
	for _, wt := range g.mix {
		g.total += wt
	}
	if w.fleet {
		g.pool = estimatePairs(rand.New(rand.NewSource(seed*1000003+7919)), n, min(estimatePool, n*n/4))
		g.poolZ = rand.NewZipf(g.rng, zipfS, 1, uint64(len(g.pool)-1))
		g.objZ = rand.NewZipf(g.rng, zipfS, 1, numObjects-1)
		for i := 0; i < numObjects; i++ {
			if i%movingEvery == movingEvery-1 {
				g.moving = append(g.moving, i)
			}
		}
	}
	return g
}

// estimatePairs draws the fleet estimate pool: distinct-endpoint pairs,
// even ranks cross-shard and odd ranks intra-shard, so the Zipf head and
// tail are both half cross-shard.
func estimatePairs(rng *rand.Rand, n, count int) []pair {
	pool := make([]pair, count)
	for i := range pool {
		u := rng.Intn(n)
		var v int
		if i%2 == 0 {
			for v = rng.Intn(n); v%fleetShards == u%fleetShards; v = rng.Intn(n) {
			}
		} else {
			for v = sameShard(rng, u, n); v == u; v = sameShard(rng, u, n) {
			}
		}
		pool[i] = pair{u, v}
	}
	return pool
}

// sameShard draws a node of u's shard (shard = id mod K).
func sameShard(rng *rand.Rand, u, n int) int {
	return u%fleetShards + fleetShards*rng.Intn(n/fleetShards)
}

// next emits the client's next query.
func (g *generator) next() request {
	if g.queued != nil {
		r := *g.queued
		g.queued = nil
		return r
	}
	// Under churn the node count moves between n and n+1 (a join, then a
	// leave), so ids below the starting n are valid at every version.
	n := g.n
	k, pick := kind(0), g.rng.Intn(g.total)
	for ; pick >= g.mix[k]; k++ {
		pick -= g.mix[k]
	}
	switch k {
	case kEstimate:
		if g.pool != nil {
			p := g.pool[g.poolZ.Uint64()]
			return request{kind: kEstimate, u: p.U, v: p.V}
		}
		return request{kind: kEstimate, u: g.rng.Intn(n), v: g.rng.Intn(n)}
	case kBatch:
		pairs := make([]pair, g.w.batchPairs)
		for i := range pairs {
			pairs[i] = pair{g.rng.Intn(n), g.rng.Intn(n)}
		}
		return request{kind: kBatch, pairs: pairs, salt: g.rng.Intn(batchSampleEvery)}
	case kNearest:
		return request{kind: kNearest, u: g.rng.Intn(n)}
	case kRoute:
		src := g.rng.Intn(n)
		return request{kind: kRoute, u: src, v: sameShard(g.rng, src, n)}
	case kLookup:
		return request{kind: kLookup, obj: int(g.objZ.Uint64()), u: g.rng.Intn(n)}
	default: // kMove
		obj := g.moving[g.rng.Intn(len(g.moving))]
		g.truth.mu.Lock()
		cur := g.truth.objs[obj].cur
		from := cur[g.rng.Intn(len(cur))]
		to := g.rng.Intn(n)
		for slices.Contains(cur, to) {
			to = g.rng.Intn(n)
		}
		g.truth.beginMove(obj, to)
		g.truth.mu.Unlock()
		g.queued = &request{kind: kPublish, obj: obj, u: to}
		return request{kind: kUnpublish, obj: obj, u: from}
	}
}

// nextMutation emits the k-th churn operation: joins and leaves
// alternate, each naming an explicit base id drawn from the tracked
// membership, so the node count stays within one of its starting value.
func (g *generator) nextMutation(k int) request {
	ids := g.truth.currentBases()
	if k%2 == 1 {
		return request{kind: kLeave, u: int(ids[g.mutRng.Intn(len(ids))])}
	}
	active := make(map[int32]bool, len(ids))
	for _, b := range ids {
		active[b] = true
	}
	for {
		if b := g.mutRng.Intn(g.truth.space.N()); !active[int32(b)] {
			return request{kind: kJoin, u: b}
		}
	}
}

// fixtureReplicas places the published objects: objReplicas distinct
// nodes each, drawn from the dataset seed (the object placement is part
// of the dataset, not of the query stream).
func fixtureReplicas(n int) [][]int {
	rng := rand.New(rand.NewSource(datasetSeed))
	out := make([][]int, numObjects)
	for i := range out {
		for len(out[i]) < objReplicas {
			if node := rng.Intn(n); !slices.Contains(out[i], node) {
				out[i] = append(out[i], node)
			}
		}
	}
	return out
}
