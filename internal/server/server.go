// Package server is regimapd's serving layer: an HTTP/JSON API over the
// engine registry, with bounded-queue admission control, a content-addressed
// result cache (internal/memo), typed error responses built on the maperr
// taxonomy, and a Prometheus-text /metrics exporter.
//
// Endpoints:
//
//	POST /v1/map       map a named kernel or inline loopir source (JSON body)
//	POST /v1/jobs      submit an async mapping job (same body + idempotency_key)
//	GET  /v1/jobs/{id} poll a job: queued/running/done/failed, degraded flag, result
//	GET  /v1/mappers   the engine registry, with descriptions
//	GET  /v1/kernels   the benchmark kernel suite, with sizes
//	GET  /healthz      liveness: 200 while the process is up
//	GET  /readyz       readiness: 503 once draining begins
//	GET  /metrics      Prometheus text-format metrics
//
// Request lifecycle: a /v1/map request resolves its kernel, array, fault
// set, and engine; acquires a per-request deadline; and consults the cache.
// Only a cache-missing leader enters the admission queue — duplicate
// identical queries collapse onto the in-flight computation without
// consuming queue slots, and cache hits bypass admission entirely. When the
// queue is full the request is shed with 429 and Retry-After before any
// mapping work starts. SIGTERM (wired in cmd/regimapd) flips readiness and
// lets in-flight requests finish.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"runtime/debug"
	"sync/atomic"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/fault"
	"regimap/internal/jobs"
	"regimap/internal/kernels"
	"regimap/internal/loopir"
	"regimap/internal/maperr"
	"regimap/internal/memo"
	"regimap/internal/obs"
	"regimap/internal/resilient"

	// Importing the mapper packages is what populates the engine registry
	// the server dispatches through (resilient above registers itself too).
	// core is also imported by name: resolve hands the regimap engine a
	// core.Options carrying the II worker count.
	"regimap/internal/core"
	"regimap/internal/dresc"
	_ "regimap/internal/ems"
	_ "regimap/internal/exact"
)

// Config tunes one Server. The zero value selects sensible defaults.
type Config struct {
	// Workers bounds concurrent mapping computations (default: GOMAXPROCS).
	Workers int
	// DRESCRestarts races this many seed-derived annealing chains per II
	// inside each DRESC run — the dresc engine and the resilient ladder's
	// DRESC rung (<=1: single chain). Unlike DRESCWorkers it changes
	// which placement is produced, so it is part of the server's
	// configuration identity: all cached results were computed under it.
	DRESCRestarts int
	// DRESCWorkers bounds the goroutines racing those chains (0: GOMAXPROCS).
	// Wall-clock only; placements are byte-identical at any value, so the
	// result cache never observes a worker-count-dependent answer.
	DRESCWorkers int
	// Queue bounds mapping computations waiting for a worker; one more is
	// shed with 429 (default 64).
	Queue int
	// CacheEntries bounds the memoized result cache (default 1024).
	CacheEntries int
	// DefaultDeadline applies when a request names none (default 30s).
	DefaultDeadline time.Duration
	// MaxDeadline clamps every request deadline (default 2m).
	MaxDeadline time.Duration
	// MaxBodyBytes bounds every request body; larger bodies answer a typed
	// 413 before any decoding work (default 1 MiB).
	MaxBodyBytes int64

	// WALDir, when set, makes the async job subsystem durable: submits are
	// fsynced into an append-only JSONL write-ahead log under this
	// directory and replayed on startup, so acknowledged jobs survive
	// kill -9. Empty: jobs run fully in memory.
	WALDir string
	// JobWorkers bounds concurrently executing async jobs — a pool separate
	// from the synchronous admission slots, so multi-second jobs never
	// starve interactive /v1/map traffic (default 2).
	JobWorkers int
	// JobQueue bounds jobs waiting to run; submits beyond it answer 429
	// (default 256).
	JobQueue int
	// DegradeWatermark is the queued-job count at which new jobs are
	// downgraded to DegradeTo and marked degraded (0: JobQueue/2;
	// negative: disabled).
	DegradeWatermark int
	// DegradeTo is the engine watermark-degraded jobs run on (default
	// "ems", the fastest full-mapping engine).
	DegradeTo string
	// JobAttempts bounds execution attempts per job on transient failures
	// (default 3).
	JobAttempts int
	// BreakerFailures is the consecutive-failure count that trips an
	// engine's circuit breaker (default 5); BreakerCooldown is how long a
	// tripped breaker waits before its half-open probe (default 5s);
	// BreakerLatency, when positive, additionally trips on consecutive
	// calls slower than it.
	BreakerFailures int
	BreakerCooldown time.Duration
	BreakerLatency  time.Duration
	// TraceSink, when set, receives the full observability stream: request
	// spans, counter points, and every span the engines emit.
	TraceSink obs.Sink
	// Version is reported by /metrics as regimapd_build_info.
	Version string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Queue <= 0 {
		c.Queue = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	if c.JobWorkers <= 0 {
		c.JobWorkers = 2
	}
	if c.JobQueue <= 0 {
		c.JobQueue = 256
	}
	if c.DegradeTo == "" {
		c.DegradeTo = "ems"
	}
	return c
}

// Server is the mapping-as-a-service handler set. Construct with New; it is
// ready to serve immediately.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *memo.Cache
	adm      *admission
	met      *metrics
	trace    *obs.Tracer // engine + request spans (nil when untraced)
	counters *obs.Tracer // counter points: always on, feeds /metrics
	jobs     *jobs.Manager
	draining atomic.Bool
}

// New returns a ready Server. The only error source is the job WAL: a
// Config.WALDir that cannot be opened or replayed refuses to start rather
// than silently serving without durability.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	met := newMetrics()
	s := &Server{
		cfg:      cfg,
		cache:    memo.New(cfg.CacheEntries, 16),
		adm:      newAdmission(cfg.Workers, cfg.Queue),
		met:      met,
		trace:    obs.New(cfg.TraceSink).Named("regimapd", ""),
		counters: obs.New(obs.Tee(met.counters, cfg.TraceSink)).Named("regimapd", ""),
	}
	mgr, err := jobs.Open(cfg.WALDir, s.runJob, jobs.Config{
		Workers:         cfg.JobWorkers,
		QueueDepth:      cfg.JobQueue,
		Watermark:       cfg.DegradeWatermark,
		DegradeTo:       cfg.DegradeTo,
		Downgrades:      resilient.Downgrades,
		MaxAttempts:     cfg.JobAttempts,
		DefaultDeadline: cfg.DefaultDeadline,
		Breaker: jobs.BreakerConfig{
			Failures: cfg.BreakerFailures,
			Cooldown: cfg.BreakerCooldown,
			Latency:  cfg.BreakerLatency,
		},
		Classify: func(err error) string { _, class := classify(err); return class },
		Trace:    s.counters.Named("jobs", ""),
	})
	if err != nil {
		return nil, err
	}
	s.jobs = mgr
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/v1/map", s.handleMap)
	s.mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	s.mux.HandleFunc("/v1/engines", s.handleEngines)
	s.mux.HandleFunc("/v1/mappers", s.handleEngines) // legacy alias for /v1/engines
	s.mux.HandleFunc("/v1/kernels", s.handleKernels)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.serveMetrics)
	return s, nil
}

// Handler returns the HTTP handler tree.
func (s *Server) Handler() http.Handler { return s.mux }

// BeginDrain flips the server into graceful shutdown: /readyz reports 503 so
// load balancers stop routing here, and new mapping requests and job submits
// are refused with 503, while requests already admitted — and every already
// acknowledged job — run to completion (the caller waits for requests with
// http.Server.Shutdown and for jobs with FinishJobs).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain was called.
func (s *Server) Draining() bool { return s.draining.Load() }

// FinishJobs completes the drain of the async job subsystem: queued jobs run
// to terminal states and the WAL is closed cleanly. Returns ctx's error if
// the budget expires first — the unfinished jobs stay in the WAL and the
// next startup recovers them.
func (s *Server) FinishJobs(ctx context.Context) error { return s.jobs.Drain(ctx) }

// Close hard-stops the job subsystem without draining — crash-equivalent by
// design: workers halt, running jobs are cancelled, and nothing further
// reaches the WAL. Acknowledged non-terminal jobs are recovered by the next
// Server opened on the same WALDir; tests use exactly this to simulate
// kill -9 in process.
func (s *Server) Close() { s.jobs.Kill() }

// errShed reports a load-shed: the admission queue was full, so the request
// was refused before any mapping work started.
var errShed = errors.New("admission queue full")

// errDraining reports a request arriving after shutdown began.
var errDraining = errors.New("server is draining")

// MapRequest is the /v1/map request body. Exactly one of Kernel and Source
// selects the loop; array fields default to the paper's 4x4 mesh with 4
// registers per PE.
type MapRequest struct {
	// Kernel names a benchmark kernel (see /v1/kernels).
	Kernel string `json:"kernel,omitempty"`
	// Source is an inline loopir loop body, compiled on the fly.
	Source string `json:"source,omitempty"`
	// Name labels an inline Source kernel (default "inline").
	Name string `json:"name,omitempty"`

	// Mapper is the engine name (see /v1/mappers; default "regimap").
	Mapper string `json:"mapper,omitempty"`

	// Arch selects the target fabric: a named architecture from the registry
	// (see arch.ArchNames — "paper-4x4", "torus-8x8", ...) or an inline ADL
	// description ("grid 4x4; topo mesh+; regs 8"). Mutually exclusive with
	// the shape fields below.
	Arch string `json:"arch,omitempty"`

	Rows     int    `json:"rows,omitempty"`
	Cols     int    `json:"cols,omitempty"`
	Regs     int    `json:"regs,omitempty"`
	Topology string `json:"topology,omitempty"`

	// Faults is a fault-set in the -faults grammar, e.g.
	// "pe 1,1; link 0,0-0,1; regs 2,2=1; row 3". Non-resilient mappers map
	// on the faulted array; the resilient ladder owns fault application
	// (and transient retry) itself.
	Faults string `json:"faults,omitempty"`

	MinII int `json:"min_ii,omitempty"`
	MaxII int `json:"max_ii,omitempty"`

	// DeadlineMS caps this request's mapping time in milliseconds
	// (default Config.DefaultDeadline, clamped to Config.MaxDeadline).
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// MapResponse is the /v1/map success body.
type MapResponse struct {
	Mapper string  `json:"mapper"`
	Kernel string  `json:"kernel"`
	II     int     `json:"ii"`
	MII    int     `json:"mii"`
	Perf   float64 `json:"perf"`
	Rounds int     `json:"rounds"`
	// Cached is true when the mapping was served from the result cache;
	// Collapsed when it was shared with an identical in-flight request.
	Cached    bool `json:"cached"`
	Collapsed bool `json:"collapsed,omitempty"`
	// ElapsedUS is the compute cost of the underlying mapping run (not of
	// this request — a cache hit reports the original run's cost).
	ElapsedUS int64 `json:"elapsed_us"`
	// Mapping is the full self-contained wire mapping (see
	// internal/mapping); null for artifact-only engines like dresc.
	Mapping json.RawMessage `json:"mapping,omitempty"`
	// Artifact summarizes the solution of engines without a Mapping form.
	Artifact string `json:"artifact,omitempty"`
}

// ErrorResponse is the body of every non-2xx API answer. Class is a stable
// machine-readable failure taxonomy mirroring internal/maperr:
// "bad-request", "bad-arch", "not-found", "too-large", "no-mapping",
// "deadline", "overloaded", "draining", "transient", "panic", "internal".
type ErrorResponse struct {
	Error string `json:"error"`
	Class string `json:"class"`
}

// cachedResult is the memoized value: everything needed to answer an
// identical query without touching an engine. MappingJSON is the marshalled
// wire mapping, stored as bytes so every hit returns the byte-identical
// payload the first computation produced.
type cachedResult struct {
	II, MII, Rounds int
	Perf            float64
	ElapsedUS       int64
	MappingJSON     json.RawMessage
	Artifact        string
}

// requestKey is the content-addressed cache key: the canonical fingerprint
// over everything that determines the mapping result. The deadline is
// deliberately excluded — it bounds how long we wait, not what the answer
// is — and aborted runs are never cached, so a short-deadline failure cannot
// poison a longer-deadline retry. See DESIGN.md section 8f.
func requestKey(d *dfg.DFG, c *arch.CGRA, faults, mapper string, minII, maxII int) memo.Key {
	dfp := d.Fingerprint()
	afp := c.Fingerprint()
	return memo.NewHasher("regimapd/v1").
		Bytes(dfp[:]).
		Bytes(afp[:]).
		Str(faults).
		Str(mapper).
		Int(int64(minII)).
		Int(int64(maxII)).
		Sum()
}

// cacheableErr reports whether a mapping error is deterministic — true for
// an exhausted search (ErrNoMapping), false for deadline aborts, sheds,
// panics, and anything else that might not repeat. Context cancellation and
// deadline errors are checked directly, not only via the ErrAborted wrap: an
// engine that folds a ctx error into its no-mapping report without the
// sentinel must still never poison the key for followers with budget left.
func cacheableErr(err error) bool {
	return errors.Is(err, maperr.ErrNoMapping) &&
		!errors.Is(err, maperr.ErrAborted) &&
		!errors.Is(err, context.Canceled) &&
		!errors.Is(err, context.DeadlineExceeded)
}

// countCacheOutcome counts one query against the cache, for /v1/map and
// jobs alike. Sheds and queue aborts are not counted: they never reached an
// engine, so they are neither a hit nor a computation. memo.hit covers
// collapsed duplicates too — they were answered without running a mapping,
// which is what the hit ratio tracks — and memo.collapse counts them apart.
func (s *Server) countCacheOutcome(outcome memo.Outcome, err error) {
	switch {
	case errors.Is(err, errShed), errors.Is(err, errDraining):
	case outcome == memo.Hit:
		s.counters.Point1("memo.hit", "n", 1)
	case outcome == memo.Collapsed && err == nil:
		s.counters.Point1("memo.hit", "n", 1)
		s.counters.Point1("memo.collapse", "n", 1)
	case outcome == memo.Miss:
		s.counters.Point1("memo.miss", "n", 1)
	}
}

// execute is the synchronous cache-miss leader path: admission, then the
// guarded engine call.
func (s *Server) execute(ctx context.Context, m engine.Mapper, d *dfg.DFG, c *arch.CGRA, eo engine.Options) (res any, err error) {
	release, err := s.adm.acquire(ctx)
	if err != nil {
		if errors.Is(err, errShed) {
			s.counters.Point1("server.shed", "n", 1)
		}
		return nil, err
	}
	defer release()
	return s.compute(ctx, m, d, c, eo)
}

// compute runs one engine call with panic isolation and packages the
// memoized value. It performs no admission: the synchronous path wraps it in
// execute, while async job workers bound their own concurrency — that
// separation is what keeps multi-second jobs from occupying interactive
// admission slots.
func (s *Server) compute(ctx context.Context, m engine.Mapper, d *dfg.DFG, c *arch.CGRA, eo engine.Options) (res any, err error) {
	defer func() {
		if v := recover(); v != nil {
			s.counters.Point1("server.panic", "n", 1)
			err = &maperr.WorkerPanicError{Worker: "regimapd worker", Value: v, Stack: debug.Stack()}
		}
	}()
	out, err := m.Map(ctx, d, c, eo)
	if err != nil {
		return nil, err
	}
	cr := &cachedResult{
		II:        out.II,
		MII:       out.MII,
		Rounds:    out.Rounds,
		Perf:      out.Perf(),
		ElapsedUS: out.Elapsed.Microseconds(),
	}
	switch {
	case out.Mapping != nil:
		blob, merr := json.Marshal(out.Mapping)
		if merr != nil {
			return nil, fmt.Errorf("encode mapping: %w", merr)
		}
		cr.MappingJSON = blob
	case out.Artifact != nil:
		cr.Artifact = fmt.Sprintf("%T", out.Artifact)
	}
	return cr, nil
}

// resolve turns a MapRequest into the engine call's inputs. All failures are
// client errors.
func (s *Server) resolve(req *MapRequest) (d *dfg.DFG, c *arch.CGRA, eng engine.Mapper, eo engine.Options, faults string, err error) {
	switch {
	case req.Kernel != "" && req.Source != "":
		return nil, nil, nil, eo, "", fmt.Errorf("kernel and source are mutually exclusive")
	case req.Kernel != "":
		k, ok := kernels.ByName(req.Kernel)
		if !ok {
			return nil, nil, nil, eo, "", &notFoundError{fmt.Sprintf("unknown kernel %q (see /v1/kernels)", req.Kernel)}
		}
		d = k.Build()
	case req.Source != "":
		name := req.Name
		if name == "" {
			name = "inline"
		}
		d, err = loopir.Compile(name, req.Source)
		if err != nil {
			return nil, nil, nil, eo, "", err
		}
	default:
		return nil, nil, nil, eo, "", fmt.Errorf("one of kernel or source is required")
	}

	c, err = s.resolveArch(req)
	if err != nil {
		return nil, nil, nil, eo, "", err
	}

	mapperName := req.Mapper
	if mapperName == "" {
		mapperName = "regimap"
	}
	eng, ok := engine.Lookup(mapperName)
	if !ok {
		return nil, nil, nil, eo, "", &badEngineError{fmt.Sprintf("unknown mapper %q (have %v, see /v1/engines)", mapperName, engine.Names())}
	}

	if req.MinII < 0 || req.MaxII < 0 || (req.MaxII > 0 && req.MinII > req.MaxII) {
		return nil, nil, nil, eo, "", fmt.Errorf("bad II bounds [%d, %d]", req.MinII, req.MaxII)
	}
	eo = engine.Options{MinII: req.MinII, MaxII: req.MaxII}
	// Restart racing is deterministic per (seed, restarts), so handing DRESC
	// — alone or as the resilient ladder's last rung — the server's chain
	// configuration keeps the cache coherent.
	drescOpts := dresc.Options{Restarts: s.cfg.DRESCRestarts, Workers: s.cfg.DRESCWorkers}
	// REGIMap, alone or as the resilient ladder's first rung, maps one II at
	// a time: admission already runs Workers computations and the async jobs
	// at once, and a speculative II that starts on a core which looks idle
	// competes with them (measured slower, DESIGN.md section 8g).
	coreOpts := core.Options{Workers: 1}
	switch mapperName {
	case "regimap":
		eo.Extra = coreOpts
	case "dresc":
		eo.Extra = drescOpts
	case "resilient":
		eo.Extra = resilient.Options{Core: coreOpts, DRESC: drescOpts}
	}

	if req.Faults != "" {
		fs, ferr := fault.Parse(req.Faults)
		if ferr != nil {
			return nil, nil, nil, eo, "", ferr
		}
		if ferr := fs.Validate(c); ferr != nil {
			return nil, nil, nil, eo, "", ferr
		}
		faults = fs.String()
		if ro, ok := eo.Extra.(resilient.Options); ok {
			// The ladder owns fault application and transient retry.
			ro.Faults = fs
			eo.Extra = ro
		} else {
			faulted, ferr := fs.Apply(c)
			if ferr != nil {
				return nil, nil, nil, eo, "", ferr
			}
			c = faulted
		}
	}
	return d, c, eng, eo, faults, nil
}

// resolveArch builds the request's array: from the arch field (a registry
// name or an inline ADL description) or from the shape fields, never both.
// Every path funnels through the ADL compiler, so a malformed fabric is
// rejected with the same *arch.DescError the CLI flags and the mapping wire
// decoder produce (answered as 400 "bad-arch"); an unknown registry name is
// a 404 like an unknown kernel or mapper.
func (s *Server) resolveArch(req *MapRequest) (*arch.CGRA, error) {
	if req.Arch != "" {
		if req.Rows != 0 || req.Cols != 0 || req.Regs != 0 || req.Topology != "" {
			return nil, fmt.Errorf("arch is mutually exclusive with rows/cols/regs/topology")
		}
		c, err := arch.Resolve(req.Arch)
		if errors.Is(err, arch.ErrUnknownArch) {
			return nil, &notFoundError{err.Error()}
		}
		return c, err
	}
	rows, cols, regs := req.Rows, req.Cols, req.Regs
	if rows == 0 {
		rows = 4
	}
	if cols == 0 {
		cols = 4
	}
	if regs == 0 {
		regs = 4
	}
	topo, err := arch.ParseTopology(req.Topology)
	if err != nil {
		return nil, err
	}
	return arch.Uniform(rows, cols, regs, topo)
}

// notFoundError marks client errors that should answer 404 instead of 400.
type notFoundError struct{ msg string }

func (e *notFoundError) Error() string { return e.msg }

// badEngineError marks a request naming an engine the registry does not
// have. Unlike an unknown kernel (a 404: the resource genuinely does not
// exist here), a bad engine name is a malformed request against a fixed,
// discoverable vocabulary — answered 400 with class "bad-engine" so clients
// can distinguish it from transport-level 404s and consult /v1/engines.
type badEngineError struct{ msg string }

func (e *badEngineError) Error() string { return e.msg }

// deadlineFor clamps the request deadline into the configured window.
func (s *Server) deadlineFor(req *MapRequest) (time.Duration, error) {
	if req.DeadlineMS < 0 {
		return 0, fmt.Errorf("negative deadline_ms %d", req.DeadlineMS)
	}
	d := time.Duration(req.DeadlineMS) * time.Millisecond
	if d == 0 {
		d = s.cfg.DefaultDeadline
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}
