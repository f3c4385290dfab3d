package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"regimap/internal/obs"
)

// latencyBuckets are the /v1/map latency histogram upper bounds, in seconds.
// They span sub-millisecond cache hits through multi-second exhaustive
// searches.
var latencyBuckets = []float64{
	0.001, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// metrics aggregates the server's Prometheus-exported state. Request totals
// and the latency histogram are plain atomics on the hot path; the counter
// family (shed, panic, cache hit/miss/collapse) arrives as obs Points in a
// counterSink that /metrics reads.
type metrics struct {
	counters *counterSink // counter Points land here (via the server's Tee)

	codesMu sync.Mutex
	codes   map[int]*atomic.Int64 // requests by HTTP status

	buckets  []atomic.Int64 // cumulative-style histogram counts (one per bound, +Inf implicit)
	sumNanos atomic.Int64
	count    atomic.Int64
}

func newMetrics() *metrics {
	return &metrics{
		counters: &counterSink{totals: map[string]int64{}},
		codes:    map[int]*atomic.Int64{},
		buckets:  make([]atomic.Int64, len(latencyBuckets)),
	}
}

// observe records one finished /v1/map request.
func (m *metrics) observe(code int, d time.Duration) {
	m.codesMu.Lock()
	ctr, ok := m.codes[code]
	if !ok {
		ctr = &atomic.Int64{}
		m.codes[code] = ctr
	}
	m.codesMu.Unlock()
	ctr.Add(1)

	secs := d.Seconds()
	for i, ub := range latencyBuckets {
		if secs <= ub {
			m.buckets[i].Add(1)
			break
		}
	}
	m.sumNanos.Add(int64(d))
	m.count.Add(1)
}

// counterSink totals the "n" field of every event by event name. Emit adds
// each point to its total under one lock, so a scrape sees every point
// emitted before it, and memory is bounded by the number of distinct
// counter names however long the daemon goes unscraped. Events without an
// "n" field contribute nothing.
type counterSink struct {
	mu     sync.Mutex
	totals map[string]int64
}

func (c *counterSink) Emit(e *obs.Event) {
	n, ok := e.FieldVal("n")
	if !ok {
		return
	}
	c.mu.Lock()
	c.totals[e.Name] += n
	c.mu.Unlock()
}

// snapshot returns a copy of the totals.
func (c *counterSink) snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.totals))
	for k, v := range c.totals {
		out[k] = v
	}
	return out
}

// writeMetrics renders the Prometheus text exposition format (version
// 0.0.4), hand-rolled: the repository takes no dependencies.
func (s *Server) writeMetrics(w io.Writer) {
	m := s.met
	totals := m.counters.snapshot()
	cs := s.cache.Stats()

	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP regimapd_build_info Build metadata; the value is always 1.\n")
	p("# TYPE regimapd_build_info gauge\n")
	p("regimapd_build_info{version=%q} 1\n", s.cfg.Version)

	p("# HELP regimapd_requests_total Finished /v1/map requests by HTTP status.\n")
	p("# TYPE regimapd_requests_total counter\n")
	m.codesMu.Lock()
	codes := make([]int, 0, len(m.codes))
	for c := range m.codes {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	for _, c := range codes {
		p("regimapd_requests_total{code=\"%d\"} %d\n", c, m.codes[c].Load())
	}
	m.codesMu.Unlock()

	p("# HELP regimapd_request_seconds /v1/map latency.\n")
	p("# TYPE regimapd_request_seconds histogram\n")
	var cum int64
	for i, ub := range latencyBuckets {
		cum += m.buckets[i].Load()
		p("regimapd_request_seconds_bucket{le=\"%g\"} %d\n", ub, cum)
	}
	p("regimapd_request_seconds_bucket{le=\"+Inf\"} %d\n", m.count.Load())
	p("regimapd_request_seconds_sum %g\n", time.Duration(m.sumNanos.Load()).Seconds())
	p("regimapd_request_seconds_count %d\n", m.count.Load())

	gauge := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		p("# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("regimapd_queue_depth", "Mapping computations waiting for a worker slot.", int64(s.adm.depth()))
	gauge("regimapd_workers_busy", "Worker slots currently held.", int64(s.adm.busy()))
	counter("regimapd_shed_total", "Requests refused with 429 because the admission queue was full.", totals["server.shed"])
	counter("regimapd_panics_total", "Mapping panics recovered into error responses.", totals["server.panic"])
	counter("regimapd_cache_hits_total", "Mapping queries answered from the result cache (including collapsed duplicates).", totals["memo.hit"])
	counter("regimapd_cache_misses_total", "Mapping queries that ran an engine.", totals["memo.miss"])
	counter("regimapd_cache_collapsed_total", "Duplicate queries collapsed onto an in-flight computation.", totals["memo.collapse"])
	counter("regimapd_cache_evictions_total", "Cache entries evicted by the LRU bound.", cs.Evictions)
	gauge("regimapd_cache_entries", "Completed results currently cached.", int64(cs.Entries))
	drain := int64(0)
	if s.Draining() {
		drain = 1
	}
	gauge("regimapd_draining", "1 once graceful shutdown has begun.", drain)

	js := s.jobs.Stats()
	p("# HELP regimapd_jobs_state Async jobs currently in each non-terminal state.\n")
	p("# TYPE regimapd_jobs_state gauge\n")
	p("regimapd_jobs_state{state=\"queued\"} %d\n", js.Queued)
	p("regimapd_jobs_state{state=\"running\"} %d\n", js.Running)
	counter("regimapd_jobs_submitted_total", "Acknowledged job submits (excluding idempotency-key duplicates).", js.Submitted)
	counter("regimapd_jobs_duplicates_total", "Submits answered with an existing job via idempotency key.", js.Duplicates)
	p("# HELP regimapd_jobs_completed_total Jobs reaching a terminal state, by outcome.\n")
	p("# TYPE regimapd_jobs_completed_total counter\n")
	p("regimapd_jobs_completed_total{status=\"done\"} %d\n", js.Done)
	p("regimapd_jobs_completed_total{status=\"failed\"} %d\n", js.Failed)
	counter("regimapd_jobs_degraded_total", "Jobs downgraded to a faster engine by the queue watermark.", js.Degraded)
	counter("regimapd_jobs_retries_total", "Job execution retries after transient failures.", js.Retries)
	counter("regimapd_jobs_recovered_total", "Non-terminal jobs re-queued from the WAL at startup.", js.Recovered)
	counter("regimapd_jobs_evicted_total", "Terminal jobs evicted by the retention bound.", js.Evicted)

	p("# HELP regimapd_breaker_state Engine circuit state: 0 closed, 1 open, 2 half-open.\n")
	p("# TYPE regimapd_breaker_state gauge\n")
	engines := make([]string, 0, len(js.Breakers))
	for name := range js.Breakers {
		engines = append(engines, name)
	}
	sort.Strings(engines)
	for _, name := range engines {
		p("regimapd_breaker_state{engine=%q} %d\n", name, int(js.Breakers[name]))
	}
	p("# HELP regimapd_breaker_trips_total Times each engine's circuit opened.\n")
	p("# TYPE regimapd_breaker_trips_total counter\n")
	for _, name := range engines {
		p("regimapd_breaker_trips_total{engine=%q} %d\n", name, js.BreakerTrips[name])
	}

	counter("regimapd_wal_records_total", "Job records appended to the write-ahead log.", js.WALRecords)
	counter("regimapd_wal_compactions_total", "WAL snapshot compactions.", js.Compactions)
	counter("regimapd_wal_compact_errors_total", "Failed WAL snapshot compactions (the log grows until one succeeds).", js.CompactErrors)
}
