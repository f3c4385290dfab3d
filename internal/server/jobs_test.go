package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/jobs"
	"regimap/internal/maperr"
)

// ctxfoldEngine reproduces an engine that folds a context error into its
// no-mapping report without the ErrAborted sentinel — the shape that used to
// poison the result cache for followers with deadline budget left.
type ctxfoldEngine struct {
	calls atomic.Int64
}

func (e *ctxfoldEngine) Name() string { return "ctxfoldtest" }

func (e *ctxfoldEngine) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts engine.Options) (*engine.Result, error) {
	if e.calls.Add(1) == 1 {
		<-ctx.Done()
		return nil, maperr.Wrap([]error{maperr.ErrNoMapping, ctx.Err()}, "search impossible under expired budget")
	}
	return &engine.Result{II: 1, MII: 1, Rounds: 1}, nil
}

var ctxfolder = &ctxfoldEngine{}

func init() {
	engine.Register(ctxfolder)
}

// postJSON sends one POST and returns status, body, and headers.
func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, blob, resp.Header
}

// submitJob submits one job and returns the decoded ack.
func submitJob(t *testing.T, ts *httptest.Server, body string, wantCode int) JobView {
	t.Helper()
	code, blob, _ := postJSON(t, ts, "/v1/jobs", body)
	if code != wantCode {
		t.Fatalf("POST /v1/jobs: status %d, want %d: %s", code, wantCode, blob)
	}
	var v JobView
	if err := json.Unmarshal(blob, &v); err != nil {
		t.Fatalf("ack body %q: %v", blob, err)
	}
	return v
}

// pollJob polls until the job is terminal.
func pollJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		code, blob := get(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("GET /v1/jobs/%s: %d: %s", id, code, blob)
		}
		var v JobView
		if err := json.Unmarshal(blob, &v); err != nil {
			t.Fatalf("poll body %q: %v", blob, err)
		}
		if v.State == "done" || v.State == "failed" {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, v.State)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestJobSubmitPollMatchesSync: the async answer is the same mapping the
// synchronous path serves — same cache key, byte-identical wire mapping.
func TestJobSubmitPollMatchesSync(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	ack := submitJob(t, ts, `{"kernel":"fir8","idempotency_key":"sync-compare"}`, http.StatusAccepted)
	if ack.State != "queued" || ack.Mapper != "regimap" {
		t.Fatalf("ack = %+v", ack)
	}
	job := pollJob(t, ts, ack.ID)
	if job.State != "done" || job.Degraded {
		t.Fatalf("job = %+v", job)
	}
	var jr MapResponse
	if err := json.Unmarshal(job.Result, &jr); err != nil {
		t.Fatalf("job result %q: %v", job.Result, err)
	}

	code, blob, _ := postMap(t, ts, `{"kernel":"fir8"}`)
	if code != http.StatusOK {
		t.Fatalf("sync map: %d: %s", code, blob)
	}
	var sr MapResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("sync request after the job was not a cache hit — paths use different keys")
	}
	if jr.II != sr.II || !bytes.Equal(jr.Mapping, sr.Mapping) {
		t.Fatalf("async and sync answers differ:\n async: %s\n  sync: %s", job.Result, blob)
	}
}

// TestJobIdempotencyKey: the same key acks the same job with 200 and runs the
// mapping once.
func TestJobIdempotencyKey(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	a := submitJob(t, ts, `{"kernel":"dct4_row","idempotency_key":"dup-1"}`, http.StatusAccepted)
	pollJob(t, ts, a.ID)
	b := submitJob(t, ts, `{"kernel":"dct4_row","idempotency_key":"dup-1"}`, http.StatusOK)
	if b.ID != a.ID {
		t.Fatalf("duplicate submit acked %s, want %s", b.ID, a.ID)
	}
	if b.State != "done" || len(b.Result) == 0 {
		t.Fatalf("duplicate ack should carry the finished job: %+v", b)
	}
	_, metrics := get(t, ts, "/metrics")
	if d := metricValue(t, metrics, "regimapd_jobs_duplicates_total"); d != 1 {
		t.Fatalf("duplicates = %d, want 1", d)
	}
	if s := metricValue(t, metrics, "regimapd_jobs_submitted_total"); s != 1 {
		t.Fatalf("submitted = %d, want 1", s)
	}
}

// TestJobIdempotencyKeyConflict: reusing a key with a different request body
// answers 409 instead of silently serving the original job's result; the
// honest retry with the original body still acks the original job.
func TestJobIdempotencyKeyConflict(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	a := submitJob(t, ts, `{"kernel":"fir8","idempotency_key":"conflict-1"}`, http.StatusAccepted)
	pollJob(t, ts, a.ID)
	code, blob, _ := postJSON(t, ts, "/v1/jobs", `{"kernel":"dct4_row","idempotency_key":"conflict-1"}`)
	if code != http.StatusConflict || errClass(t, blob) != "conflict" {
		t.Fatalf("conflicting key reuse: %d %q: %s", code, errClass(t, blob), blob)
	}
	b := submitJob(t, ts, `{"kernel":"fir8","idempotency_key":"conflict-1"}`, http.StatusOK)
	if b.ID != a.ID || b.State != "done" {
		t.Fatalf("honest retry = %+v, want job %s done", b, a.ID)
	}
}

// TestJobQueueFull: submits beyond the job queue shed with 429 + Retry-After.
func TestJobQueueFull(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobWorkers: 1, JobQueue: 1, DegradeWatermark: -1})
	gate, started := blocker.arm()
	defer close(gate)

	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest"}`, http.StatusAccepted)
	<-started // occupies the one job worker
	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest","max_ii":7}`, http.StatusAccepted)

	code, blob, hdr := postJSON(t, ts, "/v1/jobs", `{"kernel":"fir8","mapper":"blocktest","max_ii":8}`)
	if code != http.StatusTooManyRequests || errClass(t, blob) != "overloaded" {
		t.Fatalf("over-capacity submit: %d %q: %s", code, errClass(t, blob), blob)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed job submit has no Retry-After")
	}
}

// TestJobWatermarkDegrade: past the watermark new jobs run on ems, marked
// degraded, and finish even while the requested engine is wedged.
func TestJobWatermarkDegrade(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobWorkers: 1, JobQueue: 8, DegradeWatermark: 1})
	gate, started := blocker.arm()
	defer close(gate)

	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest"}`, http.StatusAccepted)
	<-started // job worker busy inside blocktest
	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest","max_ii":9}`, http.StatusAccepted)

	ack := submitJob(t, ts, `{"kernel":"dct4_row","mapper":"regimap"}`, http.StatusAccepted)
	if !ack.Degraded || ack.Mapper != "ems" || ack.Requested != "regimap" {
		t.Fatalf("watermark ack = %+v, want degraded onto ems", ack)
	}
	_, metrics := get(t, ts, "/metrics")
	if d := metricValue(t, metrics, "regimapd_jobs_degraded_total"); d != 1 {
		t.Fatalf("degraded = %d, want 1", d)
	}
}

// TestMinIIHoldsOnEMS: a request's min_ii binds ems and the resilient
// ladder on /v1/map, and a regimap job the watermark reroutes to ems keeps
// its floor. dotprod_sat maps at II 3 without one.
func TestMinIIHoldsOnEMS(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobWorkers: 1, JobQueue: 8, DegradeWatermark: 1})
	for _, mapper := range []string{"ems", "resilient"} {
		code, blob, _ := postMap(t, ts, `{"kernel":"dotprod_sat","mapper":"`+mapper+`","min_ii":5}`)
		var r MapResponse
		if code != http.StatusOK || json.Unmarshal(blob, &r) != nil || r.II < 5 {
			t.Fatalf("%s with min_ii 5: %d %s", mapper, code, blob)
		}
	}

	gate, started := blocker.arm()
	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest"}`, http.StatusAccepted)
	<-started // job worker busy inside blocktest
	submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest","max_ii":9}`, http.StatusAccepted)
	ack := submitJob(t, ts, `{"kernel":"dotprod_sat","mapper":"regimap","min_ii":5}`, http.StatusAccepted)
	close(gate)
	if !ack.Degraded || ack.Mapper != "ems" {
		t.Fatalf("watermark ack = %+v, want degraded onto ems", ack)
	}
	job := pollJob(t, ts, ack.ID)
	var r MapResponse
	if job.State != "done" || json.Unmarshal(job.Result, &r) != nil || r.Mapper != "ems" || r.II < 5 {
		t.Fatalf("degraded job with min_ii 5 = %+v", job)
	}
}

// TestJobBreakerReroute: an engine that trips its breaker has its jobs
// rerouted down the resilient ladder and still answered.
func TestJobBreakerReroute(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, JobWorkers: 1, JobAttempts: 2,
		BreakerFailures: 1, BreakerCooldown: time.Hour,
	})
	ack := submitJob(t, ts, `{"kernel":"fir8","mapper":"panictest"}`, http.StatusAccepted)
	job := pollJob(t, ts, ack.ID)
	// Attempt 1 panics on panictest and trips its breaker; attempt 2 routes
	// down the ladder (panictest is not on it, so from the top: regimap).
	if job.State != "done" || job.Mapper != "regimap" || !job.Degraded {
		t.Fatalf("rerouted job = %+v", job)
	}
	if job.Requested != "panictest" || job.Attempts != 2 {
		t.Fatalf("rerouted job = %+v", job)
	}
	_, metrics := get(t, ts, "/metrics")
	if !bytes.Contains(metrics, []byte(`regimapd_breaker_state{engine="panictest"} 1`)) {
		t.Fatalf("panictest breaker not open in:\n%s", metrics)
	}
}

// TestJobCrashRecovery: kill the server (crash-equivalent) with acknowledged
// jobs unfinished; a new server on the same WAL directory finishes them, and
// no acknowledged job is lost.
func TestJobCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Workers: 2, JobWorkers: 1, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	_, started := blocker.arm() // gate stays open: the engine wedges

	ids := make([]string, 0, 3)
	ids = append(ids, submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest","idempotency_key":"crash-0"}`, http.StatusAccepted).ID)
	<-started // first job is mid-execution inside the engine
	ids = append(ids, submitJob(t, ts, `{"kernel":"fir8","idempotency_key":"crash-1"}`, http.StatusAccepted).ID)
	ids = append(ids, submitJob(t, ts, `{"kernel":"dct4_row","idempotency_key":"crash-2"}`, http.StatusAccepted).ID)

	// Crash: workers are cancelled mid-job and nothing further reaches the
	// WAL — the on-disk state is what kill -9 would leave.
	s.Close()
	ts.Close()

	// Next life: the engine cooperates this time.
	gate2, _ := blocker.arm()
	close(gate2)
	s2, ts2 := newTestServer(t, Config{Workers: 2, JobWorkers: 1, WALDir: dir})
	_ = s2
	for _, id := range ids {
		job := pollJob(t, ts2, id)
		if job.State != "done" || len(job.Result) == 0 {
			t.Fatalf("recovered job %s = %+v", id, job)
		}
	}
	_, metrics := get(t, ts2, "/metrics")
	if r := metricValue(t, metrics, "regimapd_jobs_recovered_total"); r != 3 {
		t.Fatalf("recovered = %d, want 3", r)
	}
	// Idempotency keys survive the crash: the retried submit acks the
	// original job, now finished.
	dup := submitJob(t, ts2, `{"kernel":"fir8","idempotency_key":"crash-1"}`, http.StatusOK)
	if dup.ID != ids[1] || dup.State != "done" {
		t.Fatalf("post-crash duplicate = %+v, want job %s done", dup, ids[1])
	}
}

// TestRetiredEngineName: "portfolio", an engine earlier builds registered,
// is refused on the wire with the typed 400 "bad-engine", and a job WAL
// holding a non-terminal portfolio job, as such a build leaves behind,
// recovers to a terminal failed job carrying the bad-engine error after
// one attempt.
func TestRetiredEngineName(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2})
	for _, path := range []string{"/v1/map", "/v1/jobs"} {
		code, blob, _ := postJSON(t, ts, path, `{"kernel":"fir8","mapper":"portfolio"}`)
		if code != http.StatusBadRequest || errClass(t, blob) != "bad-engine" {
			t.Fatalf("%s with the portfolio engine: %d %s", path, code, blob)
		}
	}

	for i, state := range []jobs.State{jobs.StateQueued, jobs.StateRunning} {
		rec, err := json.Marshal(jobs.Job{
			ID:        fmt.Sprintf("j-%08d", i+1),
			Request:   []byte(`{"kernel":"fir8","mapper":"portfolio"}`),
			Requested: "portfolio",
			Engine:    "portfolio",
			State:     state,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := os.OpenFile(filepath.Join(dir, "wal.jsonl"), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(append(rec, '\n')); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	_, ts2 := newTestServer(t, Config{Workers: 2, JobWorkers: 1, WALDir: dir})
	for i := range 2 {
		job := pollJob(t, ts2, fmt.Sprintf("j-%08d", i+1))
		if job.State != "failed" || job.Class != "bad-engine" || job.Attempts != 1 ||
			!strings.Contains(job.Error, `unknown mapper "portfolio"`) {
			t.Fatalf("recovered portfolio job = %+v", job)
		}
	}
}

// TestJobPanicFailureIsTyped: a job whose every attempt panics fails with the
// "panic" class, and the job workers survive to run the next job.
func TestJobPanicFailureIsTyped(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers: 2, JobWorkers: 1, JobAttempts: 2,
		// A huge failure threshold keeps the breaker out of this test: every
		// attempt stays on panictest.
		BreakerFailures: 100,
	})
	ack := submitJob(t, ts, `{"kernel":"fir8","mapper":"panictest"}`, http.StatusAccepted)
	job := pollJob(t, ts, ack.ID)
	if job.State != "failed" || job.Class != "panic" || job.Attempts != 2 {
		t.Fatalf("panicking job = %+v", job)
	}
	next := submitJob(t, ts, `{"kernel":"fir8"}`, http.StatusAccepted)
	if got := pollJob(t, ts, next.ID); got.State != "done" {
		t.Fatalf("job worker did not survive the panic: %+v", got)
	}
}

// TestJobDeadline: a wedged engine fails the job with the deadline class
// instead of hanging the worker forever.
func TestJobDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, JobWorkers: 1, BreakerFailures: 100})
	gate, _ := blocker.arm()
	defer close(gate)
	ack := submitJob(t, ts, `{"kernel":"fir8","mapper":"blocktest","deadline_ms":30}`, http.StatusAccepted)
	job := pollJob(t, ts, ack.ID)
	if job.State != "failed" || job.Class != "deadline" {
		t.Fatalf("deadline job = %+v", job)
	}
}

// TestJobValidationAndUnknown: bad submits fail at submit time with the same
// classes as /v1/map, and polling an unknown ID answers 404.
func TestJobValidationAndUnknown(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, blob, _ := postJSON(t, ts, "/v1/jobs", `{"kernel":"nope"}`)
	if code != http.StatusNotFound || errClass(t, blob) != "not-found" {
		t.Fatalf("unknown kernel submit: %d %q", code, errClass(t, blob))
	}
	code, blob, _ = postJSON(t, ts, "/v1/jobs", `{}`)
	if code != http.StatusBadRequest {
		t.Fatalf("empty submit: %d: %s", code, blob)
	}
	code, blob = get(t, ts, "/v1/jobs/j-99999999")
	if code != http.StatusNotFound || errClass(t, blob) != "not-found" {
		t.Fatalf("unknown job poll: %d %q", code, errClass(t, blob))
	}
}

// TestJobSubmitWhileDraining: drain refuses new submits with 503 but already
// acknowledged jobs finish and stay pollable.
func TestJobSubmitWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, JobWorkers: 1})
	ack := submitJob(t, ts, `{"kernel":"fir8"}`, http.StatusAccepted)

	s.BeginDrain()
	code, blob, _ := postJSON(t, ts, "/v1/jobs", `{"kernel":"fir8","max_ii":9}`)
	if code != http.StatusServiceUnavailable || errClass(t, blob) != "draining" {
		t.Fatalf("submit while draining: %d %q", code, errClass(t, blob))
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.FinishJobs(ctx); err != nil {
		t.Fatalf("FinishJobs: %v", err)
	}
	job := pollJob(t, ts, ack.ID)
	if job.State != "done" {
		t.Fatalf("acknowledged job abandoned by drain: %+v", job)
	}
}

// TestBodyTooLarge: both POST endpoints answer a typed 413 for over-limit
// bodies.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, MaxBodyBytes: 64})
	huge := fmt.Sprintf(`{"kernel":"fir8","name":%q}`, strings.Repeat("x", 256))
	for _, path := range []string{"/v1/map", "/v1/jobs"} {
		code, blob, _ := postJSON(t, ts, path, huge)
		if code != http.StatusRequestEntityTooLarge || errClass(t, blob) != "too-large" {
			t.Fatalf("%s oversized body: %d %q: %s", path, code, errClass(t, blob), blob)
		}
	}
	// A normal-sized request still works at the tight limit.
	code, blob, _ := postJSON(t, ts, "/v1/map", `{"kernel":"fir8"}`)
	if code != http.StatusOK {
		t.Fatalf("small body refused: %d: %s", code, blob)
	}
}

// TestCancellationNotCached is the satellite-2 regression: an engine that
// folds the context error into a no-mapping answer (without the ErrAborted
// sentinel) must not poison the cache — the next query with budget left runs
// the engine and succeeds.
func TestCancellationNotCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ctxfolder.calls.Store(0)

	req := `{"kernel":"fir8","mapper":"ctxfoldtest","deadline_ms":30}`
	code, blob, _ := postMap(t, ts, req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("folded failure: %d: %s", code, blob)
	}
	code, blob, _ = postMap(t, ts, `{"kernel":"fir8","mapper":"ctxfoldtest","deadline_ms":5000}`)
	if code != http.StatusOK {
		t.Fatalf("retry served the poisoned entry: %d: %s", code, blob)
	}
	var mr MapResponse
	if err := json.Unmarshal(blob, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cached {
		t.Fatal("the context-folded failure was cached")
	}
	if n := ctxfolder.calls.Load(); n != 2 {
		t.Fatalf("engine ran %d times, want 2", n)
	}
}

// TestJobCollapseCounted: a job whose request is already in flight on
// /v1/map waits for that computation instead of running the engine again,
// and counts as a collapsed cache hit, the same as a collapsed /v1/map.
func TestJobCollapseCounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, JobWorkers: 1, DegradeWatermark: -1})
	gate, started := blocker.arm()
	const req = `{"kernel":"fir8","mapper":"blocktest","max_ii":11}`

	mapDone := make(chan error, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(req))
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("status %d", resp.StatusCode)
			}
		}
		mapDone <- err
	}()
	<-started // the /v1/map leader is inside the engine
	ack := submitJob(t, ts, req, http.StatusAccepted)
	waitFor(t, func() bool { return waitingOnFlight("(*Server).runJob") })
	close(gate)

	if err := <-mapDone; err != nil {
		t.Fatalf("in-flight /v1/map: %v", err)
	}
	if job := pollJob(t, ts, ack.ID); job.State != "done" {
		t.Fatalf("collapsed job = %+v", job)
	}
	if n := blocker.starts.Load(); n != 1 {
		t.Fatalf("engine ran %d times, want 1", n)
	}
	_, metrics := get(t, ts, "/metrics")
	for name, want := range map[string]int64{
		"regimapd_cache_collapsed_total": 1,
		"regimapd_cache_hits_total":      1,
		"regimapd_cache_misses_total":    1,
	} {
		if got := metricValue(t, metrics, name); got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
}

// waitingOnFlight reports whether a goroutine whose stack holds fn is
// parked in memo.Cache.Do, waiting for an in-flight leader. The cache has no
// hook for that moment, so the test reads the goroutine dump.
func waitingOnFlight(fn string) bool {
	buf := make([]byte, 1<<20)
	buf = buf[:runtime.Stack(buf, true)]
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, " [select") && strings.Contains(g, "memo.(*Cache).Do") && strings.Contains(g, fn) {
			return true
		}
	}
	return false
}
