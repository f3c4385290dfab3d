// Command loadgen drives regimapd's async job API for soak and chaos tests:
// it submits N jobs with deterministic idempotency keys, retries every submit
// and poll through connection failures and 429s — exactly what a well-behaved
// client does while the daemon is being killed and restarted under it — and
// records each acknowledged job as one JSON line.
//
// Generate load (keeps retrying across a daemon restart):
//
//	loadgen -addr localhost:8090 -jobs 50 -prefix soak -out acked.jsonl
//
// Verify after the dust settles (the chaos soak's acceptance step):
//
//	loadgen -addr localhost:8090 -verify acked.jsonl
//
// Verify polls every acknowledged job to a terminal state and checks that
// each done job mapped at an II no lower than the min_ii its body asked
// for, whichever engine the daemon ran it on. It then re-submits each
// idempotency key and asserts the daemon acks the same job ID with the same
// terminal content — proving no acknowledged job was lost or re-run into a
// different answer by the crash. Exit status is non-zero on any violation.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"
)

// ack is one acknowledged submit, as written to -out. Body is kept so verify
// can re-submit the identical request under the same key.
type ack struct {
	Key  string `json:"key"`
	ID   string `json:"id"`
	Body string `json:"body"`
}

// jobView mirrors the server's wire job shape (the fields verify needs).
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	Mapper   string          `json:"mapper"`
	Degraded bool            `json:"degraded"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
	Class    string          `json:"class"`
}

func main() {
	var (
		addr       = flag.String("addr", "localhost:8090", "regimapd host:port")
		jobs       = flag.Int("jobs", 20, "jobs to submit")
		kernel     = flag.String("kernel", "fir8", "kernel every job maps")
		mapper     = flag.String("mapper", "regimap", "engine every job requests")
		deadlineMS = flag.Int("deadline-ms", 0, "per-job mapping deadline (0: server default)")
		varyII     = flag.Int("vary-ii", 0, "rotate min_ii over 1..N so jobs are distinct mapping problems instead of one cache entry (0: identical jobs)")
		interval   = flag.Duration("interval", 20*time.Millisecond, "pause between submits")
		timeout    = flag.Duration("timeout", 2*time.Minute, "overall budget for the run")
		prefix     = flag.String("prefix", "loadgen", "idempotency-key prefix (keys are prefix-0..N-1)")
		out        = flag.String("out", "", "append acknowledged jobs as JSON lines to this file")
		verify     = flag.String("verify", "", "verify mode: read acked jobs from this file and check them")
	)
	flag.Parse()
	base := "http://" + *addr
	deadline := time.Now().Add(*timeout)

	if *verify != "" {
		os.Exit(runVerify(base, *verify, deadline))
	}
	os.Exit(runSubmit(base, *jobs, *kernel, *mapper, *deadlineMS, *varyII, *interval, *prefix, *out, deadline))
}

// runSubmit pushes the jobs in, retrying each submit until it is durably
// acknowledged. Connection errors and 429/503 answers are retried: during a
// chaos soak the daemon is down part of the time, and the idempotency key
// makes the retries safe.
func runSubmit(base string, jobs int, kernel, mapper string, deadlineMS, varyII int, interval time.Duration, prefix, out string, deadline time.Time) int {
	var sink io.Writer = io.Discard
	if out != "" {
		f, err := os.OpenFile(out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		defer f.Close()
		sink = f
	}
	enc := json.NewEncoder(sink)

	acked := 0
	for i := 0; i < jobs; i++ {
		key := fmt.Sprintf("%s-%d", prefix, i)
		minII := 0
		if varyII > 0 {
			minII = 1 + i%varyII
		}
		body := fmt.Sprintf(`{"kernel":%q,"mapper":%q,"deadline_ms":%d,"min_ii":%d,"idempotency_key":%q}`,
			kernel, mapper, deadlineMS, minII, key)
		id, err := submitUntilAcked(base, body, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: submit %s: %v\n", key, err)
			return 1
		}
		if err := enc.Encode(ack{Key: key, ID: id, Body: body}); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			return 1
		}
		acked++
		time.Sleep(interval)
	}
	fmt.Printf("loadgen: %d/%d jobs acknowledged\n", acked, jobs)
	return 0
}

// submitUntilAcked retries one submit until the daemon durably acks it.
func submitUntilAcked(base, body string, deadline time.Time) (string, error) {
	for {
		id, retry, err := submitOnce(base, body)
		if err == nil {
			return id, nil
		}
		if !retry || time.Now().After(deadline) {
			return "", err
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// submitOnce makes one submit attempt. retry says whether the failure is the
// kind a patient client rides out (daemon down, overloaded, draining).
func submitOnce(base, body string) (id string, retry bool, err error) {
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return "", true, err // connection refused: the daemon is mid-restart
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", true, err
	}
	switch resp.StatusCode {
	case http.StatusAccepted, http.StatusOK:
		var v jobView
		if err := json.Unmarshal(blob, &v); err != nil {
			return "", false, fmt.Errorf("ack body %q: %w", blob, err)
		}
		return v.ID, false, nil
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		return "", true, fmt.Errorf("status %d: %s", resp.StatusCode, blob)
	default:
		return "", false, fmt.Errorf("status %d: %s", resp.StatusCode, blob)
	}
}

// runVerify is the acceptance check: every acknowledged job must reach a
// terminal state, and re-submitting its key must ack the same job with the
// same content.
func runVerify(base, path string, deadline time.Time) int {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	defer f.Close()

	acks := make([]ack, 0, 64)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var a ack
		if err := json.Unmarshal([]byte(line), &a); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: bad ack line %q: %v\n", line, err)
			return 1
		}
		acks = append(acks, a)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		return 1
	}
	if len(acks) == 0 {
		fmt.Fprintln(os.Stderr, "loadgen: nothing to verify")
		return 1
	}

	violations := 0
	terminal := map[string]jobView{}
	for _, a := range acks {
		v, err := pollTerminal(base, a.ID, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: LOST %s (%s): %v\n", a.ID, a.Key, err)
			violations++
			continue
		}
		terminal[a.Key] = v
		if err := checkFloor(a.Body, v); err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: FLOOR %s (%s): %v\n", a.ID, a.Key, err)
			violations++
		}
	}
	// Exactly-once at the API surface: the same key acks the same job with
	// the same terminal content, not a rerun with a fresh ID.
	for _, a := range acks {
		want, ok := terminal[a.Key]
		if !ok {
			continue
		}
		body := a.Body
		if body == "" {
			body = fmt.Sprintf(`{"kernel":"fir8","idempotency_key":%q}`, a.Key)
		}
		id, err := submitUntilAcked(base, body, deadline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "loadgen: resubmit %s: %v\n", a.Key, err)
			violations++
			continue
		}
		if id != want.ID {
			fmt.Fprintf(os.Stderr, "loadgen: DUPLICATED %s: resubmit acked %s, want %s\n", a.Key, id, want.ID)
			violations++
			continue
		}
		again, err := pollTerminal(base, id, deadline)
		if err != nil || again.State != want.State || string(again.Result) != string(want.Result) {
			fmt.Fprintf(os.Stderr, "loadgen: DIVERGED %s: %v\n", a.Key, err)
			violations++
		}
	}
	if violations > 0 {
		fmt.Fprintf(os.Stderr, "loadgen: %d violations across %d acknowledged jobs\n", violations, len(acks))
		return 1
	}
	fmt.Printf("loadgen: verified %d acknowledged jobs: none lost, none duplicated\n", len(acks))
	return 0
}

// checkFloor reports a done job whose II is below the min_ii of its
// acknowledged body.
func checkFloor(body string, v jobView) error {
	if v.State != "done" || body == "" {
		return nil
	}
	var req struct {
		MinII int `json:"min_ii"`
	}
	var res struct {
		II int `json:"ii"`
	}
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return fmt.Errorf("acked body: %v", err)
	}
	if err := json.Unmarshal(v.Result, &res); err != nil {
		return fmt.Errorf("result: %v", err)
	}
	if res.II < req.MinII {
		return fmt.Errorf("%s mapped at II %d, below min_ii %d", v.Mapper, res.II, req.MinII)
	}
	return nil
}

// pollTerminal polls one job until it is done or failed.
func pollTerminal(base, id string, deadline time.Time) (jobView, error) {
	for {
		v, retry, err := getJob(base, id)
		switch {
		case err == nil && (v.State == "done" || v.State == "failed"):
			return v, nil
		case err != nil && !retry:
			return jobView{}, err
		}
		if time.Now().After(deadline) {
			if err == nil {
				err = fmt.Errorf("still %s at the verification deadline", v.State)
			}
			return jobView{}, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// getJob makes one poll attempt; retry mirrors submitOnce's classification.
func getJob(base, id string) (v jobView, retry bool, err error) {
	resp, err := http.Get(base + "/v1/jobs/" + id)
	if err != nil {
		return jobView{}, true, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return jobView{}, true, err
	}
	if resp.StatusCode != http.StatusOK {
		// 404 is the fatal one: an acknowledged job the daemon no longer
		// knows is exactly the loss the soak exists to catch.
		return jobView{}, false, fmt.Errorf("status %d: %s", resp.StatusCode, blob)
	}
	if err := json.Unmarshal(blob, &v); err != nil {
		return jobView{}, false, err
	}
	return v, false, nil
}
