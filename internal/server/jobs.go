// jobs.go is the HTTP face of the async job subsystem: POST /v1/jobs submits
// a mapping request and answers immediately with a job ID; GET /v1/jobs/{id}
// polls it. The executor wired into the jobs.Manager re-resolves the stored
// request on every attempt and routes the computation through the same
// content-addressed cache as the synchronous path — which is what makes
// crash-time re-execution idempotent: the recomputed answer is byte-identical
// to what the lost run would have produced (DESIGN.md section 8i).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"regimap/internal/jobs"
	"regimap/internal/memo"
)

// JobSubmitRequest is the POST /v1/jobs body: a MapRequest plus an optional
// client idempotency key. Submitting the same key twice returns the original
// job instead of enqueuing a second one.
type JobSubmitRequest struct {
	MapRequest
	// IdempotencyKey deduplicates retried submits. Clients that retry a
	// submit through a connection failure or daemon restart should always
	// send one; the ack may have been durably recorded even when the
	// response was lost.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobView is the wire form of a job, for both the submit ack and polls.
type JobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Mapper is the engine the job runs on; Requested is what the client
	// asked for. They differ exactly when Degraded is true.
	Mapper    string `json:"mapper"`
	Requested string `json:"requested,omitempty"`
	// Degraded is true when load or a tripped engine circuit rerouted the
	// job to a faster/healthier engine than requested.
	Degraded bool `json:"degraded,omitempty"`
	Attempts int  `json:"attempts,omitempty"`
	// Result is the MapResponse of a done job, stored as the exact bytes the
	// execution produced.
	Result json.RawMessage `json:"result,omitempty"`
	// Error and Class describe a failed job (Class uses the ErrorResponse
	// taxonomy).
	Error      string `json:"error,omitempty"`
	Class      string `json:"class,omitempty"`
	CreatedMS  int64  `json:"created_ms,omitempty"`
	FinishedMS int64  `json:"finished_ms,omitempty"`
}

// jobView projects the manager's record onto the wire form.
func jobView(j jobs.Job) JobView {
	v := JobView{
		ID:         j.ID,
		State:      string(j.State),
		Mapper:     j.Engine,
		Degraded:   j.Degraded,
		Attempts:   j.Attempts,
		Result:     j.Result,
		Error:      j.Error,
		Class:      j.ErrorClass,
		CreatedMS:  j.CreatedMS,
		FinishedMS: j.FinishedMS,
	}
	if j.Requested != j.Engine {
		v.Requested = j.Requested
	}
	return v
}

// handleJobSubmit is POST /v1/jobs: validate the request exactly as /v1/map
// would (bad submits fail now, not at execution time), then acknowledge it
// durably. 202 for a new job, 200 for an idempotency-key duplicate.
func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeError(w, errDraining)
		return
	}
	var req JobSubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeClientError(w, err)
		return
	}
	_, _, eng, _, _, err := s.resolve(&req.MapRequest)
	if err != nil {
		writeClientError(w, err)
		return
	}
	deadline, err := s.deadlineFor(&req.MapRequest)
	if err != nil {
		writeClientError(w, err)
		return
	}
	// Store the canonical form, not the client's raw bytes: re-marshalling
	// drops unknown-field noise and pins the engine name the validation
	// resolved (so a defaulted mapper replays identically after recovery).
	req.Mapper = eng.Name()
	req.DeadlineMS = int(deadline / time.Millisecond)
	canonical, err := json.Marshal(req.MapRequest)
	if err != nil {
		writeClientError(w, err)
		return
	}

	j, dup, err := s.jobs.Submit(req.IdempotencyKey, canonical, eng.Name(), deadline)
	switch {
	case errors.Is(err, jobs.ErrKeyConflict):
		writeJSON(w, http.StatusConflict, ErrorResponse{
			Error: fmt.Sprintf("idempotency key %q was already used for a different request (job %s)", req.IdempotencyKey, j.ID),
			Class: "conflict",
		})
		return
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorResponse{Error: err.Error(), Class: "overloaded"})
		return
	case errors.Is(err, jobs.ErrDraining):
		writeJSON(w, http.StatusServiceUnavailable, ErrorResponse{Error: err.Error(), Class: "draining"})
		return
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error(), Class: "internal"})
		return
	}
	code := http.StatusAccepted
	if dup {
		code = http.StatusOK
	}
	writeJSON(w, code, jobView(j))
}

// handleJobGet is GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, err := s.jobs.Get(r.PathValue("id"))
	if err != nil {
		writeClientError(w, &notFoundError{fmt.Sprintf("unknown job %q", r.PathValue("id"))})
		return
	}
	writeJSON(w, http.StatusOK, jobView(j))
}

// runJob is the jobs.Executor: one attempt of one job. engineName is the
// manager's routing decision (the requested engine, or a degrade/breaker
// reroute), overriding whatever the stored request says. The computation goes
// through the shared result cache under the rerouted engine's own fingerprint
// — a degraded run never pollutes the requested engine's cache key, and a
// crash-recovered re-execution of an already-computed request is a cache hit.
func (s *Server) runJob(ctx context.Context, raw []byte, engineName string) ([]byte, error) {
	var req MapRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return nil, fmt.Errorf("job request corrupt: %w", err)
	}
	req.Mapper = engineName
	d, c, eng, eo, faults, err := s.resolve(&req)
	if err != nil {
		return nil, err
	}
	ctx = s.traceInto(ctx, eng.Name(), d.Name)

	key := requestKey(d, c, faults, eng.Name(), eo.MinII, eo.MaxII)
	val, outcome, err := s.cache.Do(ctx, key, func() (any, error) {
		return s.compute(ctx, eng, d, c, eo)
	}, cacheableErr)
	s.countCacheOutcome(outcome, err)
	if err != nil {
		return nil, err
	}
	cr := val.(*cachedResult)
	return json.Marshal(MapResponse{
		Mapper:    eng.Name(),
		Kernel:    d.Name,
		II:        cr.II,
		MII:       cr.MII,
		Perf:      cr.Perf,
		Rounds:    cr.Rounds,
		Cached:    outcome != memo.Miss,
		ElapsedUS: cr.ElapsedUS,
		Mapping:   cr.MappingJSON,
		Artifact:  cr.Artifact,
	})
}
