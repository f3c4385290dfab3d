package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"regimap/internal/obs"
	"time"

	"regimap/internal/arch"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/memo"
)

// writeJSON sends v with the given status.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	// Compact output, deliberately: a cached mapping is stored as the exact
	// bytes its first computation produced, and re-encoding must not reformat
	// them — byte-identical answers are part of the cache contract.
	json.NewEncoder(w).Encode(v)
}

// classify maps a mapping-path error onto (HTTP status, taxonomy class).
// Order matters: a shed is checked before the abort class because the
// admission path wraps ctx errors, and not-found before generic client
// errors. An unknown engine reaches it only from a job recovered from an
// older build's WAL (submits are refused earlier), and keeps the class the
// wire answers it with.
func classify(err error) (int, string) {
	var bad *engine.BadOptionsError
	var be *badEngineError
	switch {
	case errors.As(err, &be):
		return http.StatusBadRequest, "bad-engine"
	case errors.Is(err, errShed):
		return http.StatusTooManyRequests, "overloaded"
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, maperr.ErrNoMapping) && !errors.Is(err, maperr.ErrAborted):
		return http.StatusUnprocessableEntity, "no-mapping"
	case errors.Is(err, maperr.ErrAborted),
		errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline"
	case errors.Is(err, maperr.ErrWorkerPanic):
		return http.StatusInternalServerError, "panic"
	case errors.Is(err, maperr.ErrTransient):
		return http.StatusServiceUnavailable, "transient"
	case errors.As(err, &bad):
		return http.StatusBadRequest, "bad-request"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// writeClientError sends a request-validation failure: 404 for unknown
// names, 413 for an over-limit body, 400 "bad-arch" for a malformed or
// unfaithful architecture description, 400 "bad-request" for everything
// else. It is for errors raised before the mapping path; failures of the
// mapping itself go through writeError/classify.
func writeClientError(w http.ResponseWriter, err error) (code int) {
	var nf *notFoundError
	if errors.As(err, &nf) {
		writeJSON(w, http.StatusNotFound, ErrorResponse{Error: err.Error(), Class: "not-found"})
		return http.StatusNotFound
	}
	var be *badEngineError
	if errors.As(err, &be) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "bad-engine"})
		return http.StatusBadRequest
	}
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit),
			Class: "too-large",
		})
		return http.StatusRequestEntityTooLarge
	}
	var desc *arch.DescError
	var unfaithful *arch.UnfaithfulError
	if errors.As(err, &desc) || errors.As(err, &unfaithful) {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "bad-arch"})
		return http.StatusBadRequest
	}
	writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error(), Class: "bad-request"})
	return http.StatusBadRequest
}

// writeError sends the taxonomy-classified error body, adding Retry-After on
// sheds so well-behaved clients back off.
func writeError(w http.ResponseWriter, err error) (code int) {
	code, class := classify(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, code, ErrorResponse{Error: err.Error(), Class: class})
	return code
}

// handleMap is POST /v1/map: resolve, fingerprint, consult the cache (which
// admits and runs the engine only on a miss), and answer.
func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorResponse{Error: "POST only", Class: "bad-request"})
		return
	}
	start := time.Now()
	code := http.StatusOK
	sp := s.trace.Start("server.request")
	defer func() {
		s.met.observe(code, time.Since(start))
		sp.Field("code", int64(code))
		sp.End()
	}()

	if s.Draining() {
		code = writeError(w, errDraining)
		return
	}

	var req MapRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		code = writeClientError(w, err)
		return
	}
	d, c, eng, eo, faults, err := s.resolve(&req)
	if err != nil {
		code = writeClientError(w, err)
		return
	}
	deadline, err := s.deadlineFor(&req)
	if err != nil {
		code = writeClientError(w, err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	ctx = s.traceInto(ctx, eng.Name(), d.Name)

	key := requestKey(d, c, faults, eng.Name(), eo.MinII, eo.MaxII)
	val, outcome, err := s.cache.Do(ctx, key, func() (any, error) {
		return s.execute(ctx, eng, d, c, eo)
	}, cacheableErr)

	s.countCacheOutcome(outcome, err)

	if err != nil {
		code = writeError(w, err)
		sp.FieldBool("ok", false)
		return
	}
	cr := val.(*cachedResult)
	sp.FieldBool("ok", true)
	sp.FieldBool("cached", outcome != memo.Miss)
	writeJSON(w, http.StatusOK, MapResponse{
		Mapper:    eng.Name(),
		Kernel:    d.Name,
		II:        cr.II,
		MII:       cr.MII,
		Perf:      cr.Perf,
		Rounds:    cr.Rounds,
		Cached:    outcome != memo.Miss,
		Collapsed: outcome == memo.Collapsed,
		ElapsedUS: cr.ElapsedUS,
		Mapping:   cr.MappingJSON,
		Artifact:  cr.Artifact,
	})
}

// traceInto attaches the engine-labelled tracer to ctx, so the mappers'
// per-pass spans reach the trace sink (no-op when the server is untraced).
func (s *Server) traceInto(ctx context.Context, eng, kernel string) context.Context {
	return obs.With(ctx, s.trace.Named(eng, kernel))
}

// EngineInfo is one /v1/engines entry.
type EngineInfo struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`
}

// MapperInfo is the legacy name for EngineInfo, kept for the /v1/mappers
// alias era; the wire shape is identical.
type MapperInfo = EngineInfo

// handleEngines is GET /v1/engines (and its legacy alias /v1/mappers): the
// engine registry, one entry per registered engine with its description,
// in registry order. The names listed here are exactly the values the map
// and job endpoints accept in the mapper field.
func (s *Server) handleEngines(w http.ResponseWriter, r *http.Request) {
	out := make([]EngineInfo, 0, 8)
	for _, name := range engine.Names() {
		m, _ := engine.Lookup(name)
		out = append(out, EngineInfo{Name: name, Description: engine.Describe(m)})
	}
	writeJSON(w, http.StatusOK, out)
}

// KernelInfo is one /v1/kernels entry.
type KernelInfo struct {
	Name        string `json:"name"`
	Suite       string `json:"suite"`
	Ops         int    `json:"ops"`
	Edges       int    `json:"edges"`
	Description string `json:"description,omitempty"`
}

func (s *Server) handleKernels(w http.ResponseWriter, r *http.Request) {
	all := kernels.All()
	out := make([]KernelInfo, 0, len(all))
	for _, k := range all {
		d := k.Build()
		out = append(out, KernelInfo{
			Name:        k.Name,
			Suite:       k.Suite,
			Ops:         d.N(),
			Edges:       len(d.Edges),
			Description: k.Description,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleHealthz is liveness: 200 for as long as the process can serve HTTP,
// including while draining — a draining daemon is alive, just not accepting
// new work, and restarting it would lose the drain.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: it flips to 503 the moment BeginDrain is called
// so load balancers stop routing here before the listener closes.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		w.Write([]byte("draining\n"))
		return
	}
	w.Write([]byte("ready\n"))
}

func (s *Server) serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.writeMetrics(w)
}
