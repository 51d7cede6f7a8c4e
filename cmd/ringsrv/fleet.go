package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"time"

	"rings/internal/shard"
	ver "rings/internal/version"
)

// Fleet-mode handlers: the same HTTP surface over a shard.Fleet. Node
// ids in requests and responses are global (owner = id mod shards);
// estimates whose endpoints live in different shards come from the
// beacon tier and carry "cross": true.

type fleetBatchResponse struct {
	Results []shard.EstimateResult `json:"results"`
}

func (s *server) handleFleetHealthz(w http.ResponseWriter) {
	// Shard 0 is representative: every shard builds from the same
	// recipe, so scheme and artifact toggles are uniform. Version is
	// the maximum across shards (each shard's engine versions its own
	// swaps independently).
	snap := s.fleet.ShardSnapshot(0)
	var version int64
	for i := 0; i < s.fleet.K(); i++ {
		if v := s.fleet.ShardSnapshot(i).Version; v > version {
			version = v
		}
	}
	down := s.fleet.ReplicasDown()
	writeJSON(w, http.StatusOK, healthBody{
		OK:           true,
		Version:      version,
		N:            s.fleet.N(),
		Workload:     s.fleet.Name(),
		Scheme:       snap.Config.Scheme,
		Routing:      snap.Routable(),
		Overlay:      snap.Overlay != nil,
		Shards:       s.fleet.K(),
		Universe:     s.fleet.Universe(),
		Replicas:     s.fleet.Replicas(),
		ReplicasDown: down,
		Degraded:     down > 0,
		Objects:      s.objectsHealthBody(),
		UptimeSec:    time.Since(s.start).Seconds(),
		BuildVersion: ver.String(),
	})
}

// replicaListBody frames GET /replica.
type replicaListBody struct {
	Replicas int                   `json:"replicas"`
	Down     int                   `json:"down"`
	Epoch    int64                 `json:"epoch"`
	Roster   []shard.ReplicaStatus `json:"roster"`
}

func (s *server) handleReplicaList(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{
			Error: "replica administration needs fleet mode (-shards or -replicas)",
			Code:  codeNotImplemented,
		})
		return
	}
	writeJSON(w, http.StatusOK, replicaListBody{
		Replicas: s.fleet.Replicas(),
		Down:     s.fleet.ReplicasDown(),
		Epoch:    s.fleet.Epoch(),
		Roster:   s.fleet.ReplicaStatuses(),
	})
}

// replicaAdminRequest is the POST /replica body: the chaos harness's
// kill switch ({"shard":0,"replica":1,"action":"kill"} / "restart").
type replicaAdminRequest struct {
	Shard   int    `json:"shard"`
	Replica int    `json:"replica"`
	Action  string `json:"action"`
}

func (s *server) handleReplicaAdmin(w http.ResponseWriter, r *http.Request) {
	if s.fleet == nil {
		writeJSON(w, http.StatusNotImplemented, errorBody{
			Error: "replica administration needs fleet mode (-shards or -replicas)",
			Code:  codeNotImplemented,
		})
		return
	}
	var req replicaAdminRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
		writeError(w, fmt.Errorf("invalid replica admin body: %v", err))
		return
	}
	var err error
	switch req.Action {
	case "kill":
		err = s.fleet.KillReplica(req.Shard, req.Replica)
	case "restart":
		err = s.fleet.RestartReplica(req.Shard, req.Replica)
	default:
		err = fmt.Errorf("action %q: want \"kill\" or \"restart\"", req.Action)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	// Report the targeted replica's fresh roster entry (the restart →
	// resync pipeline is asynchronous; pollers watch state/current).
	for _, st := range s.fleet.ReplicaStatuses() {
		if st.Shard == req.Shard && st.Replica == req.Replica {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeInternalError(w, "replica admin", fmt.Errorf("replica (%d,%d) vanished from the roster", req.Shard, req.Replica))
}

// handleFleetStats serves the fleet aggregation; ?shard=i narrows to
// one shard's engine report.
func (s *server) handleFleetStats(w http.ResponseWriter, r *http.Request) {
	if raw := queryParam(r.URL.RawQuery, "shard"); raw != "" {
		i, err := strconv.Atoi(raw)
		if err != nil || i < 0 || i >= s.fleet.K() {
			writeError(w, fmt.Errorf("shard %q out of range [0, %d)", raw, s.fleet.K()))
			return
		}
		writeJSON(w, http.StatusOK, s.fleet.ShardEngine(i).Stats())
		return
	}
	writeJSON(w, http.StatusOK, s.fleet.Stats())
}

// fleetChurnResponse reports the commits of one mutation request: the
// fleet-wide active count plus one entry per touched shard.
type fleetChurnResponse struct {
	N       int                 `json:"n"`
	Commits []shard.ChurnCommit `json:"commits"`
}

func (s *server) handleFleetJoin(w http.ResponseWriter, r *http.Request) {
	if !s.fleet.ChurnEnabled() {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: errNoChurn.Error()})
		return
	}
	var req joinRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("invalid join body: %v", err))
			return
		}
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	var (
		commits []shard.ChurnCommit
		err     error
	)
	if req.Base != nil && *req.Base >= 0 {
		commits, err = s.fleet.Apply([]shard.ChurnOp{{Kind: shard.ChurnJoin, Base: *req.Base}})
	} else {
		commits, err = s.fleet.AutoJoin(count)
	}
	s.finishFleetChurn(w, commits, err, errorBody{
		Error: "universe at capacity: nothing to join",
		Code:  codeAtCapacity,
	})
}

func (s *server) handleFleetLeave(w http.ResponseWriter, r *http.Request) {
	if !s.fleet.ChurnEnabled() {
		writeJSON(w, http.StatusNotImplemented, errorBody{Error: errNoChurn.Error()})
		return
	}
	var req leaveRequest
	if r.ContentLength != 0 {
		if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&req); err != nil {
			writeError(w, fmt.Errorf("invalid leave body: %v", err))
			return
		}
	}
	count := req.Count
	if count <= 0 {
		count = 1
	}
	var (
		commits []shard.ChurnCommit
		err     error
	)
	if req.Base != nil && *req.Base >= 0 {
		commits, err = s.fleet.Apply([]shard.ChurnOp{{Kind: shard.ChurnLeave, Base: *req.Base}})
	} else {
		// Each request derives a private stream from the seed counter,
		// so concurrent leaves on different shards stay lock-free.
		rng := rand.New(rand.NewSource(s.leaveSeed.Add(1)))
		commits, err = s.fleet.AutoLeave(count, rng)
	}
	s.finishFleetChurn(w, commits, err, errorBody{
		Error: "every shard at its floor: nothing to retire",
		Code:  codeBelowFloor,
	})
}

func (s *server) finishFleetChurn(w http.ResponseWriter, commits []shard.ChurnCommit, err error, empty errorBody) {
	if err != nil {
		writeError(w, err)
		return
	}
	if len(commits) == 0 {
		writeJSON(w, http.StatusBadRequest, empty)
		return
	}
	touched := make([]int, 0, len(commits))
	for _, c := range commits {
		touched = append(touched, c.Shard)
	}
	if err := s.persistShards(touched); err != nil {
		writeInternalError(w, "persist", err)
		return
	}
	writeJSON(w, http.StatusOK, fleetChurnResponse{N: s.fleet.N(), Commits: commits})
}
