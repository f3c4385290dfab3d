package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"regimap/internal/arch"
	"regimap/internal/fault"
	"regimap/internal/kernels"
	"regimap/internal/mapping"
	"regimap/internal/obs"
	"regimap/internal/server"
)

// The daemon workload serves regimapd's HTTP API in process, on real
// loopback HTTP, to two closed-loop clients with one connection each. Each
// client replays its own sequence: mostly cache hits on fault-free zoo
// fabrics (warmed during set-up), cold misses on the resilient engine with
// per-die fault maps of paper-4x4 (each key requested once), async regimap
// jobs on further fault maps (submitted with idempotency keys and polled to
// a terminal state), and a /metrics scrape every scrapeEvery ops of client 0.

const (
	daemonClients = 2
	// hitsPerClient is each client's cache-hit request count.
	hitsPerClient = 16000
	// diePairs is how many pairs of dies (one per client) each kernel gets
	// as cold misses, and again as async jobs.
	diePairs = 4
	// scrapeEvery is client 0's /metrics scrape interval, in ops.
	scrapeEvery = 50
	// pollEvery is the wait between polls of an async job.
	pollEvery = 2 * time.Millisecond
	// dieFabric is the fabric every die's fault map applies to.
	dieFabric = "paper-4x4"
)

// hitFabrics are the fault-free zoo fabrics the hit set is drawn from.
var hitFabrics = []string{"paper-4x4", "adres-4x4", "onehop-4x4", "band2-4x4"}

// hitKernels are the kernels of the hit set, spanning small to large
// mappings; with hitFabrics they make 48 keys, 24 per client.
var hitKernels = []string{
	"fir8", "yuv2rgb", "conv3x3", "sobel", "h264_sad", "matmul4_inner",
	"hmmer_viterbi", "rgb2gray", "iir_biquad", "sphinx_dot", "gzip_crc", "lut_map",
}

// daemonOp is one client request (or submit-and-poll, for a job).
type daemonOp struct {
	class  string // hit, miss, job, scrape
	id     string // stable identity of the problem it asks for
	kernel string
	fabric string
	body   []byte // request JSON (nil for scrapes)
}

type daemonWorkload struct {
	outDir string
	runs   int // set-ups so far, for fresh WAL directories

	srv     *server.Server
	hs      *http.Server
	served  chan error
	walDir  string
	url     string
	clients [daemonClients]*http.Client
	seqs    [daemonClients][]daemonOp

	// answers holds the first answer per problem id: the warm-up answer
	// for hits, the only answer for misses and jobs. Hits must carry its
	// mapping byte for byte; hitBody is the first verified hit body per
	// key, against which later hits are compared whole.
	mu      sync.Mutex
	answers map[string][]byte
	hitBody map[string]hitRef
	// warm and scrape are the /metrics bodies read after the warm-up and
	// after the timed phase; the ledger's counters are their difference.
	warm, scrape string
	// submit and poll latencies of the async jobs, summed.
	submitDur, pollDur time.Duration
}

// hitRef is a verified hit answer of one key.
type hitRef struct {
	body    []byte
	ii, mii int
}

// mapAnswer is the part of a /v1/map response the benchmark checks.
type mapAnswer struct {
	Kernel    string          `json:"kernel"`
	II        int             `json:"ii"`
	MII       int             `json:"mii"`
	Cached    bool            `json:"cached"`
	ElapsedUS int64           `json:"elapsed_us"`
	Mapping   json.RawMessage `json:"mapping"`
}

// faultPool returns n distinct per-die fault maps: one or two dead links or
// reduced register files each, which leave every suite kernel mappable. The
// pool is the same in every run; the seed only deals it out.
func faultPool(c *arch.CGRA, n int) []string {
	seen := map[string]bool{}
	var out []string
	for i := 0; len(out) < n; i++ {
		rng := rand.New(rand.NewSource(int64(1000 + i)))
		fs := fault.Random(rng, c, 1+i%2, fault.DeadLink, fault.ReducedRegs)
		parts := make([]string, len(fs.Faults))
		for j, f := range fs.Faults {
			parts[j] = f.String()
		}
		sort.Strings(parts)
		if key := strings.Join(parts, ";"); !seen[key] {
			seen[key] = true
			out = append(out, fs.String())
		}
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // static request shapes only
	}
	return b
}

// sequences builds both clients' op lists. Every problem exists in two
// copies (two dies, or two fabrics) with one copy per client, so the clients
// carry the same kernels; the seed decides which copy goes where and the
// order in which each client issues its ops.
func sequences(seed int64) ([daemonClients][]daemonOp, error) {
	rng := rand.New(rand.NewSource(seed))
	die, err := arch.Lookup(dieFabric)
	if err != nil {
		return [daemonClients][]daemonOp{}, err
	}
	var seqs, hits [daemonClients][]daemonOp
	deal := func(dst *[daemonClients][]daemonOp, pair [2]daemonOp) {
		first := rng.Intn(2)
		dst[0] = append(dst[0], pair[first])
		dst[1] = append(dst[1], pair[1-first])
	}
	for i, k := range hitKernels {
		for j := 0; j < len(hitFabrics); j += 2 {
			var pair [2]daemonOp
			for h := 0; h < 2; h++ {
				f := hitFabrics[(j+h+i)%len(hitFabrics)]
				pair[h] = daemonOp{class: "hit", id: "hit/" + k + "@" + f, kernel: k, fabric: f,
					body: mustJSON(server.MapRequest{Kernel: k, Arch: f, Mapper: "regimap"})}
			}
			deal(&hits, pair)
		}
	}
	names := kernels.Names()
	pool := faultPool(die, len(names)*4*diePairs)
	dieN := 0
	for _, k := range names {
		for i := 0; i < 2*diePairs; i++ {
			class := [2]string{"miss", "job"}[i%2]
			var pair [2]daemonOp
			for h := 0; h < 2; h++ {
				fm := pool[dieN]
				id := fmt.Sprintf("%s/%s@die%03d", class, k, dieN)
				dieN++
				req := server.MapRequest{Kernel: k, Arch: dieFabric, Faults: fm, Mapper: "resilient"}
				body := mustJSON(req)
				if class == "job" {
					req.Mapper = "regimap"
					body = mustJSON(server.JobSubmitRequest{MapRequest: req, IdempotencyKey: id})
				}
				pair[h] = daemonOp{class: class, id: id, kernel: k, fabric: dieFabric, body: body}
			}
			deal(&seqs, pair)
		}
	}
	for c := range seqs {
		// Every hit key is asked equally often, so the multiset of
		// requests, and with it every count, is the same for every seed.
		for i := 0; i < hitsPerClient; i++ {
			seqs[c] = append(seqs[c], hits[c][i%len(hits[c])])
		}
		rng.Shuffle(len(seqs[c]), func(i, j int) { seqs[c][i], seqs[c][j] = seqs[c][j], seqs[c][i] })
	}
	var withScrapes []daemonOp
	for i, op := range seqs[0] {
		if i%scrapeEvery == 0 {
			withScrapes = append(withScrapes, daemonOp{class: "scrape", id: fmt.Sprintf("scrape/%04d", i/scrapeEvery)})
		}
		withScrapes = append(withScrapes, op)
	}
	seqs[0] = withScrapes
	return seqs, nil
}

func (w *daemonWorkload) setup(seed int64, sink obs.Sink) error {
	seqs, err := sequences(seed)
	if err != nil {
		return err
	}
	w.seqs = seqs
	return w.start(sink)
}

// start opens a fresh server (fresh WAL directory) with the cmd/regimapd
// flag defaults, spelled out so the benchmark's configuration stays pinned,
// serves it on loopback, and warms the hit set.
func (w *daemonWorkload) start(sink obs.Sink) error {
	w.runs++
	w.walDir = filepath.Join(w.outDir, "wal", fmt.Sprintf("%d-%d", os.Getpid(), w.runs))
	if err := os.RemoveAll(w.walDir); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		Queue:           64,
		CacheEntries:    1024,
		DefaultDeadline: 30 * time.Second,
		MaxDeadline:     2 * time.Minute,
		MaxBodyBytes:    1 << 20,
		WALDir:          w.walDir,
		JobWorkers:      2,
		JobQueue:        256,
		DegradeTo:       "ems",
		JobAttempts:     3,
		BreakerFailures: 5,
		BreakerCooldown: 5 * time.Second,
		TraceSink:       sink,
		Version:         "benchmark",
	})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	w.srv = srv
	w.hs = &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(ln) }()
	w.url = "http://" + ln.Addr().String()
	for c := range w.clients {
		w.clients[c] = &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		}}
	}
	w.answers = map[string][]byte{}
	w.hitBody = map[string]hitRef{}
	w.submitDur, w.pollDur = 0, 0
	// Warm the hit set: each client computes its own keys once.
	for c, seq := range w.seqs {
		for _, op := range seq {
			if op.class != "hit" || w.answers[op.id] != nil {
				continue
			}
			body, code, err := w.post(c, "/v1/map", op.body)
			if err != nil || code != http.StatusOK {
				return fmt.Errorf("warm %s: %d %v %s", op.id, code, err, body)
			}
			w.answers[op.id] = body
		}
	}
	body, code, err := w.get(0, "/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("warm-up scrape: %d %v", code, err)
	}
	w.warm = string(body)
	return nil
}

func (w *daemonWorkload) post(c int, path string, body []byte) ([]byte, int, error) {
	resp, err := w.clients[c].Post(w.url+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func (w *daemonWorkload) get(c int, path string) ([]byte, int, error) {
	resp, err := w.clients[c].Get(w.url + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return out, resp.StatusCode, err
}

func (w *daemonWorkload) run(_ context.Context, tr *obs.Tracer) []opResult {
	var wg sync.WaitGroup
	var out [daemonClients][]opResult
	for c := range w.seqs {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			btr := tr.Named(fmt.Sprintf("client%d", c), "")
			res := make([]opResult, len(w.seqs[c]))
			for i := range w.seqs[c] {
				res[i] = w.do(btr, c, &w.seqs[c][i])
			}
			out[c] = res
		}(c)
	}
	wg.Wait()
	body, code, err := w.get(0, "/metrics")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status %d", code)
	}
	all := append(out[0], out[1]...)
	if err != nil {
		all = append(all, opResult{id: "final-scrape", err: err})
	}
	w.scrape = string(body)
	return all
}

// do executes one op for client c.
func (w *daemonWorkload) do(tr *obs.Tracer, c int, op *daemonOp) opResult {
	r := opResult{id: op.id, class: op.class, engine: "regimapd", kernel: op.kernel, fabric: op.fabric, scored: op.class != "scrape"}
	sp := tr.Start("client." + op.class)
	t0 := time.Now()
	var body []byte
	var code int
	var err error
	switch op.class {
	case "scrape":
		body, code, err = w.get(c, "/metrics")
	case "job":
		body, code, err = w.job(c, op)
	default:
		body, code, err = w.post(c, "/v1/map", op.body)
	}
	r.lat = time.Since(t0)
	sp.End()
	switch {
	case err != nil:
		r.err = err
	case op.class == "scrape":
		if code != http.StatusOK {
			r.err = fmt.Errorf("scrape: status %d", code)
		}
	case code == http.StatusUnprocessableEntity:
		// An honest "no mapping": the op completed with II 0.
	case code != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(body))
	default:
		r.bad = w.answer(op, body, &r)
	}
	return r
}

// job submits one async job and polls it until it reaches a terminal state;
// it returns the job's result as a /v1/map-shaped body (200) or its
// classified failure (422 for an honest no-mapping).
func (w *daemonWorkload) job(c int, op *daemonOp) ([]byte, int, error) {
	t0 := time.Now()
	body, code, err := w.post(c, "/v1/jobs", op.body)
	w.addDur(&w.submitDur, time.Since(t0))
	if err != nil {
		return nil, 0, err
	}
	if code != http.StatusAccepted {
		return body, code, nil
	}
	var view server.JobView
	if err := json.Unmarshal(body, &view); err != nil {
		return nil, 0, fmt.Errorf("submit ack: %w", err)
	}
	for {
		time.Sleep(pollEvery)
		t1 := time.Now()
		body, code, err = w.get(c, "/v1/jobs/"+view.ID)
		w.addDur(&w.pollDur, time.Since(t1))
		if err != nil || code != http.StatusOK {
			return body, code, err
		}
		view = server.JobView{}
		if err := json.Unmarshal(body, &view); err != nil {
			return nil, 0, fmt.Errorf("poll: %w", err)
		}
		switch view.State {
		case "done":
			return view.Result, http.StatusOK, nil
		case "failed":
			if view.Class == "no-mapping" {
				return nil, http.StatusUnprocessableEntity, nil
			}
			return nil, http.StatusInternalServerError, fmt.Errorf("job %s failed: %s (%s)", view.ID, view.Error, view.Class)
		}
	}
}

func (w *daemonWorkload) addDur(acc *time.Duration, d time.Duration) {
	w.mu.Lock()
	*acc += d
	w.mu.Unlock()
}

// answer records an answered mapping. Hits must repeat the warm-up answer
// byte for byte; misses and jobs are stored for the simulator check made
// after the timed phase.
func (w *daemonWorkload) answer(op *daemonOp, body []byte, r *opResult) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if op.class == "hit" {
		if ref, ok := w.hitBody[op.id]; ok && bytes.Equal(body, ref.body) {
			r.ii, r.mii, r.proven = ref.ii, ref.mii, ref.ii == ref.mii
			return nil
		}
	}
	var a mapAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	r.ii, r.mii, r.proven = a.II, a.MII, a.II == a.MII
	if op.class == "hit" {
		var fa mapAnswer
		if err := json.Unmarshal(w.answers[op.id], &fa); err != nil {
			return fmt.Errorf("warm-up answer: %w", err)
		}
		if !a.Cached || !bytes.Equal(a.Mapping, fa.Mapping) || a.II != fa.II || a.MII != fa.MII {
			return fmt.Errorf("hit differs from the first answer for its key (cached=%t)", a.Cached)
		}
		if _, seen := w.hitBody[op.id]; seen {
			return fmt.Errorf("hit body differs from the key's earlier hits")
		}
		w.hitBody[op.id] = hitRef{body: append([]byte(nil), body...), ii: a.II, mii: a.MII}
		return nil
	}
	r.mapDur = time.Duration(a.ElapsedUS) * time.Microsecond
	if a.Cached {
		return fmt.Errorf("a first request for its key was answered from the cache")
	}
	w.answers[op.id] = append([]byte(nil), body...)
	return nil
}

// check decodes every distinct answered wire mapping and certifies it in the
// simulator against the sequential reference interpreter.
func (w *daemonWorkload) check(res []opResult) error {
	ids := make([]string, 0, len(w.answers))
	for id := range w.answers {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	byID := map[string]*opResult{}
	for i := range res {
		byID[res[i].id] = &res[i]
	}
	for _, id := range ids {
		var a mapAnswer
		if err := json.Unmarshal(w.answers[id], &a); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		var m mapping.Mapping
		if err := m.UnmarshalJSON(a.Mapping); err != nil {
			return fmt.Errorf("%s: wire mapping does not decode: %w", id, err)
		}
		k, ok := kernels.ByName(a.Kernel)
		if !ok {
			return fmt.Errorf("%s: answer names unknown kernel %q", id, a.Kernel)
		}
		if err := certify(&m, k.Build(), a.II); err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		if r := byID[id]; r != nil {
			r.m = &m
		}
	}
	return nil
}

// scraped returns the timed phase's share of the /metrics series that the
// server reads from the cache and job manager directly. The cache hit, miss
// and collapse counters are not among them: /metrics totals those from
// trace points it drains on every scrape, and a point emitted between the
// drain's sum and its reset is lost, so under concurrent scrapes they
// undercount. The ledger takes them from the trace instead.
func (w *daemonWorkload) scraped() (map[string]float64, error) {
	series := map[string]string{
		"memo.evictions": "regimapd_cache_evictions_total",
		"jobs.done":      `regimapd_jobs_completed_total{status="done"}`,
		"jobs.failed":    `regimapd_jobs_completed_total{status="failed"}`,
		"jobs.retries":   "regimapd_jobs_retries_total",
		"jobs.degraded":  "regimapd_jobs_degraded_total",
		"wal.records":    "regimapd_wal_records_total",
	}
	before, after := parseMetrics(w.warm), parseMetrics(w.scrape)
	out := map[string]float64{}
	for name, s := range series {
		v, ok := after[s]
		if !ok {
			return nil, fmt.Errorf("/metrics has no %s", s)
		}
		out[name] = v - before[s]
	}
	return out, nil
}

// parseMetrics reads the samples of a Prometheus text exposition.
func parseMetrics(text string) map[string]float64 {
	values := map[string]float64{}
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if i := strings.LastIndexByte(line, ' '); i > 0 {
			if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
				values[line[:i]] = v
			}
		}
	}
	return values
}

func (w *daemonWorkload) counts(res []opResult) map[string]float64 {
	c := map[string]float64{}
	for i := range res {
		c["ops."+res[i].class]++
	}
	sc, err := w.scraped()
	if err != nil {
		c["scrape.error"] = 1
	}
	for k, v := range sc {
		c[k] = v
	}
	return c
}

func (w *daemonWorkload) layers(res []opResult, events []obs.Event) (map[string]float64, map[string]float64, error) {
	m, det, err := engineLayers(events, false)
	if err != nil {
		return nil, nil, err
	}
	sc, err := w.scraped()
	if err != nil {
		return nil, nil, err
	}
	for k, v := range sc {
		m[k], det[k] = v, v
	}
	points := map[string]string{"memo.hits": "memo.hit", "memo.misses": "memo.miss", "memo.collapses": "memo.collapse", "server.shed": "server.shed"}
	for k, name := range points {
		m[k] = float64(sumField(events, name, "n"))
		det[k] = m[k]
	}
	var hitSpan, missSpan time.Duration
	for i := range events {
		e := &events[i]
		if e.Name != "server.request" {
			continue
		}
		if cached, _ := e.FieldVal("cached"); cached == 1 {
			hitSpan += e.Dur
		} else {
			missSpan += e.Dur
		}
	}
	lat := map[string][]float64{}
	var clientMap, missEngine, engine time.Duration
	for i := range res {
		r := &res[i]
		lat[r.class] = append(lat[r.class], ms(r.lat))
		if r.class == "hit" || r.class == "miss" {
			clientMap += r.lat
		}
		if r.class == "miss" {
			missEngine += r.mapDur
		}
		engine += r.mapDur
	}
	m["server.hit_ms"] = ms(hitSpan)
	m["server.miss_ms"] = ms(missSpan)
	m["server.miss_overhead_ms"] = ms(missSpan - missEngine)
	m["http.client_overhead_ms"] = ms(clientMap - hitSpan - missSpan)
	m["engine.ms"] = ms(engine)
	m["jobs.submit_ms"] = ms(w.submitDur)
	m["jobs.poll_ms"] = ms(w.pollDur)
	m["server.scrape_ms"] = sumMS(lat["scrape"])
	for _, class := range []string{"hit", "miss", "job"} {
		m["client."+class+"_ms_p50"] = median(lat[class])
		t, err := tail(lat[class], tailPercentile(len(lat[class])))
		if err != nil {
			return nil, nil, fmt.Errorf("client.%s_ms_tail: %w", class, err)
		}
		m["client."+class+"_ms_tail"] = t
	}
	return m, det, requestPathCosts(m, pathInputs(res))
}

func sumMS(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func (w *daemonWorkload) tailPct() float64 {
	n := 0
	for _, s := range w.seqs {
		n += len(s)
	}
	return tailPercentile(n)
}

// close stops the server: the listener and its connections first, then the
// job workers (draining them, which closes the WAL), and removes the WAL.
func (w *daemonWorkload) close() {
	if w.srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, c := range w.clients {
		if c != nil {
			c.CloseIdleConnections()
		}
	}
	w.srv.BeginDrain()
	if err := w.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: http shutdown: %v\n", err)
	}
	if err := <-w.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "benchmark: serve: %v\n", err)
	}
	if err := w.srv.FinishJobs(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: drain jobs: %v\n", err)
	}
	if err := os.RemoveAll(w.walDir); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: remove WAL: %v\n", err)
	}
	w.srv = nil
}
