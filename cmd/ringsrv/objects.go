package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"rings/internal/objects"
	"rings/internal/oracle"
	"rings/internal/shard"
)

// Object-location endpoints (both modes):
//
//	POST /publish        {"object":"name","node":N}
//	POST /unpublish      {"object":"name","node":N}
//	GET  /lookup?object=name&from=N
//	GET  /objects/stats
//
// Node ids use the same currency as the query endpoints: current
// snapshot ids in single-engine mode (the server translates to the
// churn-stable base ids the directory stores, and answers carry both),
// global ids in fleet mode (global ids ARE the stable ids there).
// An unknown object is 404 "not_found"; a directory over a flat-only
// warm start (no index until hydration) is 503 "unavailable".

// enableObjects (re)builds the single-engine object directory over the
// engine's current snapshot (fleet mode keeps its per-shard directories
// inside shard.Fleet). Metrics is always attached: the rings_objects_*
// series exist from boot. Must be called before serving.
func (s *server) enableObjects(cfg objects.Config) {
	if s.fleet != nil {
		return
	}
	s.objMetrics = objects.NewMetrics()
	cfg.Metrics = s.objMetrics
	s.objDir = objects.New(s.engine.Snapshot(), cfg)
}

// objectsHealth is the /healthz advertisement of the object layer.
type objectsHealth struct {
	// Ready is false between a flat-only warm start and its hydration.
	Ready       bool  `json:"ready"`
	Objects     int   `json:"objects"`
	Replicas    int   `json:"replicas"`
	Republishes int64 `json:"republishes"`
}

func (s *server) objectsHealthBody() *objectsHealth {
	if s.fleet != nil {
		st := s.fleet.ObjectStats()
		return &objectsHealth{Ready: st.Ready, Objects: st.Objects, Replicas: st.Replicas, Republishes: st.Republishes}
	}
	if s.objDir == nil {
		return nil
	}
	st := s.objDir.Stats()
	return &objectsHealth{Ready: st.Ready, Objects: st.Objects, Replicas: st.Replicas, Republishes: st.Republishes}
}

type publishRequest struct {
	Object string `json:"object"`
	Node   int    `json:"node"`
}

// publishBody reports one accepted publish/unpublish: Node echoes the
// request's id currency, Stable is the churn-stable id the replica is
// tracked under (equal without churn; global ids in fleet mode).
type publishBody struct {
	Object   string `json:"object"`
	Node     int    `json:"node"`
	Stable   int    `json:"stable"`
	Replicas int    `json:"replicas"`
}

// stableFromInternal maps a current snapshot id to the churn-stable id
// behind it (identity without churn).
func stableFromInternal(snap *oracle.Snapshot, id int) (int, error) {
	if id < 0 || id >= snap.N() {
		return 0, fmt.Errorf("node %d outside [0, %d): %w", id, snap.N(), oracle.ErrNodeRange)
	}
	if snap.Perm != nil {
		return int(snap.Perm[id]), nil
	}
	return id, nil
}

func (s *server) decodePublish(w http.ResponseWriter, r *http.Request) (publishRequest, bool) {
	var req publishRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("invalid publish body: %v", err))
		return req, false
	}
	if req.Object == "" {
		writeError(w, errors.New("publish needs a non-empty \"object\""))
		return req, false
	}
	return req, true
}

func (s *server) handlePublish(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePublish(w, r)
	if !ok {
		return
	}
	if s.fleet != nil {
		n, err := s.fleet.PublishObject(req.Object, req.Node)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, publishBody{Object: req.Object, Node: req.Node, Stable: req.Node, Replicas: n})
		return
	}
	stable, err := stableFromInternal(s.engine.Snapshot(), req.Node)
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := s.objDir.Publish(req.Object, stable)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, publishBody{Object: req.Object, Node: req.Node, Stable: stable, Replicas: n})
}

func (s *server) handleUnpublish(w http.ResponseWriter, r *http.Request) {
	req, ok := s.decodePublish(w, r)
	if !ok {
		return
	}
	if s.fleet != nil {
		n, err := s.fleet.UnpublishObject(req.Object, req.Node)
		if err != nil {
			writeError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, publishBody{Object: req.Object, Node: req.Node, Stable: req.Node, Replicas: n})
		return
	}
	stable, err := stableFromInternal(s.engine.Snapshot(), req.Node)
	if err != nil {
		writeError(w, err)
		return
	}
	n, err := s.objDir.Unpublish(req.Object, stable)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, publishBody{Object: req.Object, Node: req.Node, Stable: stable, Replicas: n})
}

// lookupBody frames GET /lookup. The embedded result's "node" is in the
// request's id currency (current snapshot id / fleet global id);
// "stable" is the churn-stable id behind it.
type lookupBody struct {
	objects.LookupResult
	Stable int `json:"stable"`
	// Fleet attribution (fleet mode only).
	Shard   *int  `json:"shard,omitempty"`
	Remote  bool  `json:"remote,omitempty"`
	Pruned  int   `json:"pruned,omitempty"`
	Refined int   `json:"refined,omitempty"`
	Epoch   int64 `json:"epoch,omitempty"`
}

func (s *server) handleLookup(w http.ResponseWriter, r *http.Request) {
	q := r.URL.RawQuery
	obj := queryParam(q, "object")
	if obj == "" {
		writeError(w, errors.New("missing required parameter \"object\""))
		return
	}
	from, err := intParam(q, "from")
	if err != nil {
		writeError(w, err)
		return
	}
	if s.fleet != nil {
		res, err := s.fleet.LookupObject(obj, from)
		if err != nil {
			writeError(w, err)
			return
		}
		sh := res.Shard
		writeJSON(w, http.StatusOK, lookupBody{
			LookupResult: res.LookupResult,
			Stable:       res.Node,
			Shard:        &sh,
			Remote:       res.Remote,
			Pruned:       res.Pruned,
			Refined:      res.Refined,
			Epoch:        res.Epoch,
		})
		return
	}
	stable, err := stableFromInternal(s.engine.Snapshot(), from)
	if err != nil {
		writeError(w, err)
		return
	}
	res, err := s.objDir.Lookup(obj, stable)
	if err != nil {
		writeError(w, err)
		return
	}
	body := lookupBody{LookupResult: res, Stable: res.Node}
	// Answer in the same id currency the request used.
	body.Node = s.objDir.CurrentOf(res.Node)
	writeJSON(w, http.StatusOK, body)
}

// objectsStatsBody frames GET /objects/stats.
type objectsStatsBody struct {
	Single *objects.Stats     `json:"single,omitempty"`
	Fleet  *shard.ObjectStats `json:"fleet,omitempty"`
}

func (s *server) handleObjectsStats(w http.ResponseWriter, r *http.Request) {
	if s.fleet != nil {
		st := s.fleet.ObjectStats()
		writeJSON(w, http.StatusOK, objectsStatsBody{Fleet: &st})
		return
	}
	st := s.objDir.Stats()
	writeJSON(w, http.StatusOK, objectsStatsBody{Single: &st})
}
