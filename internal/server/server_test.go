package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"regimap/internal/arch"
	"regimap/internal/core"
	"regimap/internal/dfg"
	"regimap/internal/engine"
	"regimap/internal/kernels"
	"regimap/internal/maperr"
	"regimap/internal/mapping"
	"regimap/internal/resilient"
)

// blockEngine is a controllable test mapper: every Map call signals started,
// then parks until the current gate closes (or the request deadline fires).
// It lets the tests saturate the admission gate deterministically.
type blockEngine struct {
	mu      sync.Mutex
	gate    chan struct{}
	started chan struct{}
	starts  atomic.Int64
}

func (b *blockEngine) Name() string { return "blocktest" }

// arm installs fresh gate/started channels for one test and returns them.
func (b *blockEngine) arm() (gate chan struct{}, started chan struct{}) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gate = make(chan struct{})
	b.started = make(chan struct{}, 64)
	b.starts.Store(0)
	return b.gate, b.started
}

func (b *blockEngine) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts engine.Options) (*engine.Result, error) {
	b.mu.Lock()
	gate, started := b.gate, b.started
	b.mu.Unlock()
	b.starts.Add(1)
	if started != nil {
		started <- struct{}{}
	}
	select {
	case <-gate:
		return &engine.Result{II: 1, MII: 1, Rounds: 1}, nil
	case <-ctx.Done():
		return nil, maperr.Aborted(ctx.Err(), "blocktest aborted")
	}
}

// panicEngine always panics, to exercise the handler's panic isolation.
type panicEngine struct{}

func (panicEngine) Name() string { return "panictest" }
func (panicEngine) Map(ctx context.Context, d *dfg.DFG, c *arch.CGRA, opts engine.Options) (*engine.Result, error) {
	panic("panictest detonated")
}

var blocker = &blockEngine{}

func init() {
	engine.Register(blocker)
	engine.Register(panicEngine{})
}

// newTestServer starts an httptest server around a fresh Server.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(s.Close)
	return s, ts
}

// postMap sends one /v1/map request and returns the status, body, and
// response headers.
func postMap(t *testing.T, ts *httptest.Server, body string) (int, []byte, http.Header) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/map: %v", err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp.StatusCode, blob, resp.Header
}

func get(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, blob
}

// metricValue extracts one un-labelled metric value from Prometheus text.
func metricValue(t *testing.T, metrics []byte, name string) int64 {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\d+)$`)
	m := re.FindSubmatch(metrics)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, metrics)
	}
	v, err := strconv.ParseInt(string(m[1]), 10, 64)
	if err != nil {
		t.Fatalf("metric %s: %v", name, err)
	}
	return v
}

func errClass(t *testing.T, body []byte) string {
	t.Helper()
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil {
		t.Fatalf("error body %q: %v", body, err)
	}
	return er.Class
}

// TestConcurrentIdenticalRequests is the headline cache acceptance: N
// parallel identical POSTs produce byte-identical mappings, equal to what
// calling the engine directly produces, with exactly one cache miss and N-1
// hits visible in /metrics.
func TestConcurrentIdenticalRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Queue: 64})
	const n = 12
	req := `{"kernel":"fir8","mapper":"regimap"}`

	var wg sync.WaitGroup
	bodies := make([][]byte, n)
	codes := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i], _ = postMap(t, ts, req)
		}(i)
	}
	wg.Wait()

	// The same query answered directly, bypassing the server.
	k, ok := kernels.ByName("fir8")
	if !ok {
		t.Fatal("fir8 missing from the kernel suite")
	}
	eng, _ := engine.Lookup("regimap")
	out, err := eng.Map(context.Background(), k.Build(), arch.New(4, 4, 4, arch.Mesh), engine.Options{})
	if err != nil {
		t.Fatalf("direct map: %v", err)
	}
	want, err := json.Marshal(out.Mapping)
	if err != nil {
		t.Fatalf("marshal direct mapping: %v", err)
	}

	cachedCount := 0
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, codes[i], bodies[i])
		}
		var mr MapResponse
		if err := json.Unmarshal(bodies[i], &mr); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if !bytes.Equal(mr.Mapping, want) {
			t.Fatalf("request %d: mapping differs from the direct engine result\n got: %s\nwant: %s", i, mr.Mapping, want)
		}
		if mr.II != out.II || mr.MII != out.MII {
			t.Fatalf("request %d: II/MII = %d/%d, direct = %d/%d", i, mr.II, mr.MII, out.II, out.MII)
		}
		if mr.Cached {
			cachedCount++
		}
		// The wire mapping must decode and re-validate.
		var decoded mapping.Mapping
		if err := json.Unmarshal(mr.Mapping, &decoded); err != nil {
			t.Fatalf("request %d: wire mapping rejected: %v", i, err)
		}
	}
	if cachedCount != n-1 {
		t.Fatalf("%d responses marked cached, want %d", cachedCount, n-1)
	}

	_, metrics := get(t, ts, "/metrics")
	if hits := metricValue(t, metrics, "regimapd_cache_hits_total"); hits != n-1 {
		t.Fatalf("cache hits = %d, want %d\n%s", hits, n-1, metrics)
	}
	if misses := metricValue(t, metrics, "regimapd_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	if entries := metricValue(t, metrics, "regimapd_cache_entries"); entries != 1 {
		t.Fatalf("cache entries = %d, want 1", entries)
	}
}

// TestLoadShedding saturates one worker and one queue slot with blocked
// requests, then proves the next distinct request is shed with 429 before
// any mapping starts, and that the blocked requests still finish.
func TestLoadShedding(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Queue: 1})
	gate, started := blocker.arm()

	type result struct {
		code int
		body []byte
	}
	results := make(chan result, 2)
	post := func(maxII int) {
		code, body, _ := postMap(t, ts, fmt.Sprintf(`{"kernel":"fir8","mapper":"blocktest","max_ii":%d}`, maxII))
		results <- result{code, body}
	}

	go post(1) // takes the worker slot
	<-started  // ...and is now inside the engine
	go post(2) // takes the single queue slot
	waitFor(t, func() bool { return s.adm.depth() == 1 })

	startsBefore := blocker.starts.Load()
	code, body, hdr := postMap(t, ts, `{"kernel":"fir8","mapper":"blocktest","max_ii":3}`)
	if code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d: %s", code, body)
	}
	if errClass(t, body) != "overloaded" {
		t.Fatalf("shed class = %q", errClass(t, body))
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("shed response has no Retry-After")
	}
	if blocker.starts.Load() != startsBefore {
		t.Fatal("a shed request reached the engine")
	}

	close(gate)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("blocked request %d finished with %d: %s", i, r.code, r.body)
		}
	}
	_, metrics := get(t, ts, "/metrics")
	if shed := metricValue(t, metrics, "regimapd_shed_total"); shed != 1 {
		t.Fatalf("shed_total = %d, want 1", shed)
	}
}

// TestGracefulDrain proves BeginDrain refuses new work with 503 while the
// already-admitted request runs to completion.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, Queue: 4})
	gate, started := blocker.arm()

	done := make(chan result1, 1)
	go func() {
		code, body, _ := postMap(t, ts, `{"kernel":"fir8","mapper":"blocktest"}`)
		done <- result1{code, body}
	}()
	<-started

	s.BeginDrain()
	if code, _ := get(t, ts, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while draining: %d", code)
	}
	if code, _ := get(t, ts, "/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while draining: %d", code)
	}
	code, body, _ := postMap(t, ts, `{"kernel":"fir8","mapper":"blocktest","max_ii":9}`)
	if code != http.StatusServiceUnavailable || errClass(t, body) != "draining" {
		t.Fatalf("new request while draining: %d %q", code, errClass(t, body))
	}

	close(gate)
	r := <-done
	if r.code != http.StatusOK {
		t.Fatalf("in-flight request was not allowed to finish: %d: %s", r.code, r.body)
	}
}

type result1 struct {
	code int
	body []byte
}

// TestDeadline proves a short per-request deadline aborts a stuck engine
// with 504 and that the failure is not cached: the same query succeeds once
// the engine cooperates.
func TestDeadline(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	gate, _ := blocker.arm()

	code, body, _ := postMap(t, ts, `{"kernel":"fir8","mapper":"blocktest","deadline_ms":30}`)
	if code != http.StatusGatewayTimeout || errClass(t, body) != "deadline" {
		t.Fatalf("stuck engine: %d %q: %s", code, errClass(t, body), body)
	}

	close(gate)
	code, body, _ = postMap(t, ts, `{"kernel":"fir8","mapper":"blocktest","deadline_ms":5000}`)
	if code != http.StatusOK {
		t.Fatalf("retry after the abort was not recomputed: %d: %s", code, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Cached {
		t.Fatal("aborted result was served from cache")
	}
}

// TestPanicIsolation proves an engine panic becomes a 500 with the panic
// class and the server keeps serving afterwards.
func TestPanicIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})

	code, body, _ := postMap(t, ts, `{"kernel":"fir8","mapper":"panictest"}`)
	if code != http.StatusInternalServerError || errClass(t, body) != "panic" {
		t.Fatalf("panicking engine: %d %q", code, errClass(t, body))
	}
	code, body, _ = postMap(t, ts, `{"kernel":"fir8"}`)
	if code != http.StatusOK {
		t.Fatalf("server did not survive the panic: %d: %s", code, body)
	}
	_, metrics := get(t, ts, "/metrics")
	if p := metricValue(t, metrics, "regimapd_panics_total"); p != 1 {
		t.Fatalf("panics_total = %d, want 1", p)
	}
}

// TestNoMappingIsCached proves deterministic infeasibility (ErrNoMapping) is
// served from cache on repeat: same 422 answer, one engine run.
func TestNoMappingIsCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Queue: 4})
	// fir8 has far more ops than a 1x1 array can retire at II 2.
	req := `{"kernel":"fir8","rows":1,"cols":1,"max_ii":2}`
	code, body, _ := postMap(t, ts, req)
	if code != http.StatusUnprocessableEntity || errClass(t, body) != "no-mapping" {
		t.Fatalf("infeasible request: %d %q: %s", code, errClass(t, body), body)
	}
	code, _, _ = postMap(t, ts, req)
	if code != http.StatusUnprocessableEntity {
		t.Fatalf("repeat infeasible request: %d", code)
	}
	_, metrics := get(t, ts, "/metrics")
	if misses := metricValue(t, metrics, "regimapd_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1 (the 422 should be cached)", misses)
	}
	if hits := metricValue(t, metrics, "regimapd_cache_hits_total"); hits != 1 {
		t.Fatalf("hits = %d, want 1", hits)
	}
}

// TestInlineSource maps a loop given as loopir text and round-trips the
// returned wire mapping through mapping.UnmarshalJSON (which re-validates).
func TestInlineSource(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"source":"acc = acc + a[i]*3", "name":"maclite"}`
	code, body, _ := postMap(t, ts, req)
	if code != http.StatusOK {
		t.Fatalf("inline source: %d: %s", code, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	if mr.Kernel != "maclite" || mr.II < 1 || len(mr.Mapping) == 0 {
		t.Fatalf("inline response = %+v", mr)
	}
	var m mapping.Mapping
	if err := json.Unmarshal(mr.Mapping, &m); err != nil {
		t.Fatalf("wire mapping invalid: %v", err)
	}
	if m.II != mr.II {
		t.Fatalf("wire II %d != response II %d", m.II, mr.II)
	}
}

// TestFaultedRequest maps around a dead PE and proves the fault set is part
// of the cache key (same kernel, different faults => distinct results).
func TestFaultedRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	code, body, _ := postMap(t, ts, `{"kernel":"fir8","faults":"pe 1,1"}`)
	if code != http.StatusOK {
		t.Fatalf("faulted map: %d: %s", code, body)
	}
	code, body, _ = postMap(t, ts, `{"kernel":"fir8"}`)
	if code != http.StatusOK {
		t.Fatalf("healthy map: %d: %s", code, body)
	}
	_, metrics := get(t, ts, "/metrics")
	if misses := metricValue(t, metrics, "regimapd_cache_misses_total"); misses != 2 {
		t.Fatalf("misses = %d, want 2 (faulted and healthy must not share a key)", misses)
	}
}

// TestClientErrors walks the request-validation surface.
func TestClientErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, body string
		code       int
		class      string
	}{
		{"no kernel", `{}`, http.StatusBadRequest, "bad-request"},
		{"both kernel and source", `{"kernel":"fir8","source":"x = a[i]"}`, http.StatusBadRequest, "bad-request"},
		{"unknown kernel", `{"kernel":"nope"}`, http.StatusNotFound, "not-found"},
		{"unknown mapper", `{"kernel":"fir8","mapper":"nope"}`, http.StatusBadRequest, "bad-engine"},
		{"bad faults", `{"kernel":"fir8","faults":"pe 99,99"}`, http.StatusBadRequest, "bad-request"},
		{"bad topology", `{"kernel":"fir8","topology":"hypercube"}`, http.StatusBadRequest, "bad-request"},
		{"bad II bounds", `{"kernel":"fir8","min_ii":9,"max_ii":2}`, http.StatusBadRequest, "bad-request"},
		{"negative deadline", `{"kernel":"fir8","deadline_ms":-1}`, http.StatusBadRequest, "bad-request"},
		{"unknown field", `{"kernel":"fir8","bogus":1}`, http.StatusBadRequest, "bad-request"},
		{"bad source", `{"source":"x ="}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		code, body, _ := postMap(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.code, body)
			continue
		}
		if got := errClass(t, body); got != tc.class {
			t.Errorf("%s: class %q, want %q", tc.name, got, tc.class)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/map")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/map: %d", resp.StatusCode)
	}
}

// TestArchRequests drives the /v1/map arch field end to end: named zoo
// members and inline ADL descriptions map, the wire mapping reproduces the
// requested fabric exactly, malformed descriptions come back as 400
// "bad-arch", unknown names as 404, and the shape fields are mutually
// exclusive with arch.
func TestArchRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Every named zoo member maps a kernel through /v1/map.
	for _, name := range arch.ArchNames() {
		code, body, _ := postMap(t, ts, fmt.Sprintf(`{"kernel":"dotprod_sat","arch":%q}`, name))
		if code != http.StatusOK {
			t.Fatalf("arch %q: %d: %s", name, code, body)
		}
		var mr MapResponse
		if err := json.Unmarshal(body, &mr); err != nil {
			t.Fatal(err)
		}
		var m mapping.Mapping
		if err := json.Unmarshal(mr.Mapping, &m); err != nil {
			t.Fatalf("arch %q: wire mapping invalid: %v", name, err)
		}
		want, err := arch.Resolve(name)
		if err != nil {
			t.Fatal(err)
		}
		if m.C.Fingerprint() != want.Fingerprint() {
			t.Fatalf("arch %q: wire mapping is bound to a different fabric", name)
		}
	}

	// Inline ADL works too, and heterogeneous constraints survive the wire.
	code, body, _ := postMap(t, ts,
		`{"kernel":"dotprod_sat","arch":"grid 4x4; regs 4; cap all nomem; cap col 0 all"}`)
	if code != http.StatusOK {
		t.Fatalf("inline ADL: %d: %s", code, body)
	}
	var mr MapResponse
	if err := json.Unmarshal(body, &mr); err != nil {
		t.Fatal(err)
	}
	var m mapping.Mapping
	if err := json.Unmarshal(mr.Mapping, &m); err != nil {
		t.Fatalf("inline ADL: wire mapping invalid: %v", err)
	}
	if m.C.Supports(m.C.PEAt(1, 1), dfg.Load) {
		t.Fatal("inline ADL: nomem constraint lost on the wire")
	}

	// Error surface.
	cases := []struct {
		name, body string
		code       int
		class      string
	}{
		{"oversized grid", `{"kernel":"fir8","arch":"grid 99x99; regs 4"}`, http.StatusBadRequest, "bad-arch"},
		{"malformed adl", `{"kernel":"fir8","arch":"grid 4x4; frobnicate 3"}`, http.StatusBadRequest, "bad-arch"},
		{"banked cap above 1", `{"kernel":"fir8","arch":"grid 4x4; regs 4; bus rows; buscap 1=2"}`, http.StatusBadRequest, "bad-arch"},
		{"unknown name", `{"kernel":"fir8","arch":"no-such-fabric"}`, http.StatusNotFound, "not-found"},
		{"arch plus shape", `{"kernel":"fir8","arch":"paper-4x4","rows":4}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		code, body, _ := postMap(t, ts, tc.body)
		if code != tc.code {
			t.Errorf("%s: status %d, want %d: %s", tc.name, code, tc.code, body)
			continue
		}
		if got := errClass(t, body); got != tc.class {
			t.Errorf("%s: class %q, want %q", tc.name, got, tc.class)
		}
	}
}

// TestArchCacheKeyedOnFingerprint: the memo cache keys on the compiled
// fabric's fingerprint, so the named paper mesh, its inline ADL, and the
// default shape fields all share one entry, while a genuinely different
// fabric misses.
func TestArchCacheKeyedOnFingerprint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"kernel":"fir8","arch":"paper-4x4"}`,
		`{"kernel":"fir8"}`,
		`{"kernel":"fir8","arch":"grid 4x4; regs 4"}`,
	} {
		code, rb, _ := postMap(t, ts, body)
		if code != http.StatusOK {
			t.Fatalf("%s: %d: %s", body, code, rb)
		}
	}
	_, metrics := get(t, ts, "/metrics")
	if misses := metricValue(t, metrics, "regimapd_cache_misses_total"); misses != 1 {
		t.Fatalf("misses = %d, want 1 (three spellings of the paper mesh must share a cache entry)", misses)
	}
	code, rb, _ := postMap(t, ts, `{"kernel":"fir8","arch":"adres-4x4"}`)
	if code != http.StatusOK {
		t.Fatalf("adres-4x4: %d: %s", code, rb)
	}
	_, metrics = get(t, ts, "/metrics")
	if misses := metricValue(t, metrics, "regimapd_cache_misses_total"); misses != 2 {
		t.Fatalf("misses = %d, want 2 (a different fabric must not share a key)", misses)
	}
}

// TestDiscoveryEndpoints sanity-checks /v1/mappers and /v1/kernels.
func TestDiscoveryEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// /v1/engines and its legacy alias /v1/mappers answer the same listing.
	for _, path := range []string{"/v1/engines", "/v1/mappers"} {
		code, body := get(t, ts, path)
		if code != http.StatusOK {
			t.Fatalf("%s: %d", path, code)
		}
		var engines []EngineInfo
		if err := json.Unmarshal(body, &engines); err != nil {
			t.Fatal(err)
		}
		found := map[string]string{}
		for _, m := range engines {
			found[m.Name] = m.Description
		}
		for _, want := range []string{"dresc", "ems", "exact", "regimap", "resilient"} {
			desc, ok := found[want]
			if !ok {
				t.Errorf("%s missing %q (got %v)", path, want, engines)
				continue
			}
			if desc == "" {
				t.Errorf("%s lists %q without a description", path, want)
			}
		}
		if _, ok := found["portfolio"]; ok {
			t.Errorf("%s lists the retired portfolio engine", path)
		}
	}

	code, body := get(t, ts, "/v1/kernels")
	if code != http.StatusOK {
		t.Fatalf("/v1/kernels: %d", code)
	}
	var ks []KernelInfo
	if err := json.Unmarshal(body, &ks); err != nil {
		t.Fatal(err)
	}
	if len(ks) < 8 {
		t.Fatalf("only %d kernels listed", len(ks))
	}
	for _, k := range ks {
		if k.Ops <= 0 {
			t.Errorf("kernel %s lists %d ops", k.Name, k.Ops)
		}
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestExactEngineOverHTTP drives the exact SAT backend through both the
// synchronous map endpoint and the async job API, and checks that an
// unknown engine on either path answers the typed 400 "bad-engine".
func TestExactEngineOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, blob, _ := postMap(t, ts, `{"kernel":"dotprod_sat","mapper":"exact"}`)
	if code != http.StatusOK {
		t.Fatalf("sync exact map: %d: %s", code, blob)
	}
	var sr MapResponse
	if err := json.Unmarshal(blob, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Mapper != "exact" || sr.II <= 0 || sr.II < sr.MII {
		t.Fatalf("sync exact answer = %+v", sr)
	}

	ack := submitJob(t, ts, `{"kernel":"dotprod_sat","mapper":"exact","idempotency_key":"exact-1"}`, http.StatusAccepted)
	job := pollJob(t, ts, ack.ID)
	if job.State != "done" {
		t.Fatalf("exact job = %+v", job)
	}
	var jr MapResponse
	if err := json.Unmarshal(job.Result, &jr); err != nil {
		t.Fatalf("job result %q: %v", job.Result, err)
	}
	if jr.II != sr.II {
		t.Fatalf("async exact II=%d, sync II=%d", jr.II, sr.II)
	}

	for _, submit := range []func() (int, []byte){
		func() (int, []byte) {
			code, blob, _ := postMap(t, ts, `{"kernel":"dotprod_sat","mapper":"nope"}`)
			return code, blob
		},
		func() (int, []byte) {
			code, blob, _ := postJSON(t, ts, "/v1/jobs", `{"kernel":"dotprod_sat","mapper":"nope"}`)
			return code, blob
		},
	} {
		code, blob := submit()
		if code != http.StatusBadRequest {
			t.Fatalf("unknown engine: status %d, want 400: %s", code, blob)
		}
		if got := errClass(t, blob); got != "bad-engine" {
			t.Fatalf("unknown engine: class %q, want \"bad-engine\": %s", got, blob)
		}
		if !strings.Contains(string(blob), "exact") {
			t.Fatalf("bad-engine body does not list the registry: %s", blob)
		}
	}
}

// TestMetricsCountersExactUnderScrape emits counter points from several
// goroutines while /metrics is scraped in a loop: every point must reach the
// exported totals exactly once, whatever the interleaving (CI runs the
// package under -race).
func TestMetricsCountersExactUnderScrape(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	scrape := func() []byte {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		return rec.Body.Bytes()
	}

	const emitters, perEmitter = 4, 2000
	stop := make(chan struct{})
	scrapes := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-stop:
				scrapes <- n
				return
			default:
			}
			scrape()
			n++
		}
	}()
	var wg sync.WaitGroup
	for e := 0; e < emitters; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				s.counters.Point1("memo.hit", "n", 1)
				s.counters.Point1("server.shed", "n", 2)
			}
		}()
	}
	wg.Wait()
	close(stop)
	if n := <-scrapes; n == 0 {
		t.Fatal("no scrape overlapped the emitters")
	}

	metrics := scrape()
	if got := metricValue(t, metrics, "regimapd_cache_hits_total"); got != emitters*perEmitter {
		t.Fatalf("cache hits = %d, want %d", got, emitters*perEmitter)
	}
	if got := metricValue(t, metrics, "regimapd_shed_total"); got != 2*emitters*perEmitter {
		t.Fatalf("shed = %d, want %d", got, 2*emitters*perEmitter)
	}
}

// TestResolveResilientGetsDRESCConfig: the resilient ladder's DRESC rung
// runs with the server's restart configuration on a healthy fabric as well
// as on a faulted one.
func TestResolveResilientGetsDRESCConfig(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, DRESCRestarts: 3, DRESCWorkers: 2})
	for _, faults := range []string{"", "pe 1,1"} {
		_, _, _, eo, _, err := s.resolve(&MapRequest{Kernel: "fir8", Mapper: "resilient", Faults: faults})
		if err != nil {
			t.Fatalf("faults %q: resolve: %v", faults, err)
		}
		ro, ok := eo.Extra.(resilient.Options)
		if !ok {
			t.Fatalf("faults %q: Extra = %T, want resilient.Options", faults, eo.Extra)
		}
		if ro.DRESC.Restarts != s.cfg.DRESCRestarts || ro.DRESC.Workers != s.cfg.DRESCWorkers {
			t.Fatalf("faults %q: DRESC = %+v, want Restarts %d Workers %d",
				faults, ro.DRESC, s.cfg.DRESCRestarts, s.cfg.DRESCWorkers)
		}
		if (ro.Faults != nil) != (faults != "") {
			t.Fatalf("faults %q: resilient fault set = %v", faults, ro.Faults)
		}
	}
}

// TestResolveREGIMapRunsOneII: admission already runs Workers computations
// and the async jobs at once, so every REGIMap run a request starts — the
// regimap engine's and the resilient ladder's REGIMap rung's — maps one II
// at a time (core.Options.Workers 1).
func TestResolveREGIMapRunsOneII(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1})
	for _, mapper := range []string{"regimap", "resilient"} {
		_, _, _, eo, _, err := s.resolve(&MapRequest{Kernel: "fir8", Mapper: mapper})
		if err != nil {
			t.Fatalf("%s: resolve: %v", mapper, err)
		}
		var got int
		switch extra := eo.Extra.(type) {
		case core.Options:
			got = extra.Workers
		case resilient.Options:
			got = extra.Core.Workers
		default:
			t.Fatalf("%s: Extra = %T", mapper, eo.Extra)
		}
		if got != 1 {
			t.Errorf("%s: REGIMap Workers %d, want 1", mapper, got)
		}
	}
}
