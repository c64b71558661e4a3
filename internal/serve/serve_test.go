package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mintc/internal/circuits"
	"mintc/internal/core"
	"mintc/internal/engine"
	"mintc/internal/parse"
	"mintc/internal/serve"
)

// slowEngine blocks until its context ends — the deterministic way to
// hold a request in flight for deadline, shedding and drain tests.
type slowEngine struct{}

func (slowEngine) Name() string { return "slowtest" }

func (slowEngine) Solve(ctx context.Context, ov core.DelayOverlay, opts engine.Options) (*engine.Result, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

func init() { engine.Register(slowEngine{}) }

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func circuitText(t testing.TB, c *core.Circuit) string {
	t.Helper()
	var b strings.Builder
	if err := parse.WriteCircuit(&b, c); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// postJSON posts body and decodes the response into out (when non-nil),
// returning the status code.
func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			t.Fatalf("decode %s response %q: %v", url, raw, err)
		}
	}
	return resp.StatusCode
}

// openCircuit registers a circuit and returns its digest.
func openCircuit(t *testing.T, ts *httptest.Server, c *core.Circuit) string {
	t.Helper()
	var opened struct {
		Digest string `json:"digest"`
		Paths  int    `json:"paths"`
	}
	code := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"tenant": "test", "circuit": circuitText(t, c)}, &opened)
	if code != http.StatusOK {
		t.Fatalf("open: status %d", code)
	}
	if opened.Digest == "" {
		t.Fatal("open returned empty digest")
	}
	return opened.Digest
}

func TestServeMinTcMatchesDirect(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	var res struct {
		Tc       float64 `json:"tc"`
		Schedule struct {
			Tc float64   `json:"tc"`
			S  []float64 `json:"s"`
			T  []float64 `json:"t"`
		} `json:"schedule"`
	}
	code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &res)
	if code != http.StatusOK {
		t.Fatalf("mintc: status %d", code)
	}
	want := circuits.Example1OptimalTc(80)
	if math.Abs(res.Tc-want) > 1e-6 {
		t.Fatalf("served Tc = %v, want %v", res.Tc, want)
	}
	if len(res.Schedule.S) == 0 || res.Schedule.Tc != res.Tc {
		t.Fatalf("schedule malformed: %+v", res.Schedule)
	}
}

func TestServeEditsAndReoptimize(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	var edited struct {
		Tc float64 `json:"tc"`
	}
	code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{
		"digest": digest,
		"edits":  []map[string]any{{"path": 3, "delay": 95.0}},
	}, &edited)
	if code != http.StatusOK {
		t.Fatalf("edited mintc: status %d", code)
	}

	var reopt struct {
		Tc       float64 `json:"tc"`
		Resolved bool    `json:"resolved"`
	}
	code = postJSON(t, ts.URL+"/v1/reoptimize", map[string]any{
		"digest": digest, "path": 3, "delay": 95.0,
	}, &reopt)
	if code != http.StatusOK {
		t.Fatalf("reoptimize: status %d", code)
	}
	if math.Abs(reopt.Tc-edited.Tc) > 1e-6 {
		t.Fatalf("reoptimize Tc = %v, edited mintc Tc = %v — must agree", reopt.Tc, edited.Tc)
	}
}

func TestServeCheckTc(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	var solved struct {
		Schedule json.RawMessage `json:"schedule"`
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &solved); code != 200 {
		t.Fatalf("mintc: status %d", code)
	}
	var check struct {
		Feasible   bool `json:"feasible"`
		Violations []struct {
			Kind string `json:"kind"`
		} `json:"violations"`
	}
	code := postJSON(t, ts.URL+"/v1/checktc", map[string]any{
		"digest": digest, "schedule": json.RawMessage(solved.Schedule),
	}, &check)
	if code != http.StatusOK {
		t.Fatalf("checktc: status %d", code)
	}
	if !check.Feasible {
		t.Fatalf("optimal schedule judged infeasible: %+v", check)
	}

	// Squeeze the cycle time: must turn infeasible with violations.
	var sched struct {
		Tc float64   `json:"tc"`
		S  []float64 `json:"s"`
		T  []float64 `json:"t"`
	}
	if err := json.Unmarshal(solved.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	sched.Tc *= 0.5
	code = postJSON(t, ts.URL+"/v1/checktc", map[string]any{"digest": digest, "schedule": sched}, &check)
	if code != http.StatusOK {
		t.Fatalf("squeezed checktc: status %d", code)
	}
	if check.Feasible || len(check.Violations) == 0 {
		t.Fatalf("half-Tc schedule judged feasible: %+v", check)
	}
}

func TestServeSolveCertified(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	var res struct {
		Engine    string  `json:"engine"`
		Tc        float64 `json:"tc"`
		Certified bool    `json:"certified"`
		Trail     []struct {
			Rung      string `json:"rung"`
			Certified bool   `json:"certified"`
		} `json:"trail"`
	}
	code := postJSON(t, ts.URL+"/v1/solve", map[string]any{
		"digest": digest, "engine": "mlp", "certify": true,
	}, &res)
	if code != http.StatusOK {
		t.Fatalf("solve: status %d", code)
	}
	if !res.Certified {
		t.Fatal("certified solve returned certified=false")
	}
	if len(res.Trail) == 0 || !res.Trail[len(res.Trail)-1].Certified {
		t.Fatalf("trail malformed: %+v", res.Trail)
	}
	want := circuits.Example1OptimalTc(80)
	if math.Abs(res.Tc-want) > 1e-6 {
		t.Fatalf("certified Tc = %v, want %v", res.Tc, want)
	}
}

func TestServeErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	cases := []struct {
		name string
		path string
		body any
		want int
	}{
		{"unknown digest", "/v1/mintc", map[string]any{"digest": "deadbeef"}, 404},
		{"missing digest", "/v1/mintc", map[string]any{}, 400},
		{"unknown field", "/v1/mintc", map[string]any{"digest": digest, "bogus": 1}, 400},
		{"bad edit path", "/v1/mintc", map[string]any{"digest": digest, "edits": []map[string]any{{"path": 9999, "delay": 1.0}}}, 400},
		{"negative delay", "/v1/mintc", map[string]any{"digest": digest, "edits": []map[string]any{{"path": 0, "delay": -1.0}}}, 400},
		{"unknown engine", "/v1/solve", map[string]any{"digest": digest, "engine": "nope"}, 400},
		{"infeasible fixed tc", "/v1/mintc", map[string]any{"digest": digest, "options": map[string]any{"fixed_tc": 1.0}}, 422},
		{"empty circuit", "/v1/sessions", map[string]any{"tenant": "t", "circuit": ""}, 400},
		{"unparsable circuit", "/v1/sessions", map[string]any{"tenant": "t", "circuit": "not a circuit"}, 400},
	}
	for _, tc := range cases {
		var errBody struct {
			Error string `json:"error"`
		}
		if code := postJSON(t, ts.URL+tc.path, tc.body, &errBody); code != tc.want {
			t.Errorf("%s: status %d, want %d (error %q)", tc.name, code, tc.want, errBody.Error)
		} else if errBody.Error == "" {
			t.Errorf("%s: error body missing", tc.name)
		}
	}
}

func TestServeDeadlinePropagation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	body, _ := json.Marshal(map[string]any{"digest": digest, "engine": "slowtest"})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(body))
	req.Header.Set("X-Deadline-Ms", "80")
	t0 := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d (%s), want 504", resp.StatusCode, raw)
	}
	if took := time.Since(t0); took > 5*time.Second {
		t.Fatalf("deadline took %v to fire", took)
	}
}

func TestServeRateShed(t *testing.T) {
	// One token, glacial refill: the first request is admitted, the
	// second is shed with Retry-After.
	_, ts := newTestServer(t, serve.Config{Rate: 0.0001, Burst: 1})
	var opened struct {
		Digest string `json:"digest"`
	}
	code := postJSON(t, ts.URL+"/v1/sessions", map[string]any{"tenant": "t", "circuit": circuitText(t, circuits.Example1(80))}, &opened)
	if code != http.StatusOK {
		t.Fatalf("first request: status %d", code)
	}

	body, _ := json.Marshal(map[string]any{"digest": opened.Digest})
	resp, err := http.Post(ts.URL+"/v1/mintc", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
}

func TestServeQueueDepthShed(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{MaxInflight: 1})
	digest := openCircuit(t, ts, circuits.Example1(80)) // completes: queue empty again

	// Park one slow request in the only slot.
	parked := make(chan int, 1)
	go func() {
		body, _ := json.Marshal(map[string]any{"digest": digest, "engine": "slowtest"})
		req, _ := http.NewRequest("POST", ts.URL+"/v1/solve", bytes.NewReader(body))
		req.Header.Set("X-Deadline-Ms", "3000")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			parked <- 0
			return
		}
		resp.Body.Close()
		parked <- resp.StatusCode
	}()

	// Wait until it is admitted (visible in /metrics, which bypasses
	// admission), then the next request must shed.
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().Inflight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow request never registered in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &errBody); code != http.StatusTooManyRequests {
		t.Fatalf("over-ceiling request: status %d, want 429", code)
	}
	if got := <-parked; got != http.StatusGatewayTimeout {
		t.Fatalf("parked request: status %d, want 504", got)
	}
	if s.Metrics().Shed == 0 {
		t.Fatal("shed counter did not move")
	}
}

// streamLines POSTs a streaming request and returns the parsed NDJSON
// records.
func streamLines(t *testing.T, url string, body any) []map[string]any {
	t.Helper()
	blob, _ := json.Marshal(body)
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("stream status %d: %s", resp.StatusCode, raw)
	}
	var out []map[string]any
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestServeSweepStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	recs := streamLines(t, ts.URL+"/v1/sweep", map[string]any{
		"digest": digest, "path": 3, "values": []float64{80, 95, 110},
	})
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 3 points + done: %v", len(recs), recs)
	}
	lastTc := 0.0
	for i, rec := range recs[:3] {
		tc, ok := rec["tc"].(float64)
		if !ok {
			t.Fatalf("point %d missing tc: %v", i, rec)
		}
		if tc < lastTc {
			t.Fatalf("sweep Tc not monotone over rising delay: %v", recs)
		}
		lastTc = tc
	}
	if done, _ := recs[3]["done"].(bool); !done {
		t.Fatalf("final record not done: %v", recs[3])
	}
}

// TestServeSweepDeadlineEndsWithError: a stream cut by its request
// deadline ends with an in-band error record, never silently, and the
// cut is counted like the binary protocol's 504 error frame.
func TestServeSweepDeadlineEndsWithError(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	blob, _ := json.Marshal(map[string]any{
		"digest": digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 100000,
	})
	req, _ := http.NewRequest("POST", ts.URL+"/v1/sweep", bytes.NewReader(blob))
	req.Header.Set("X-Deadline-Ms", "50")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	var last map[string]any
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last == nil || last["done"] == true {
		t.Fatalf("final record = %v, want a deadline cut of a 100k-point sweep", last)
	}
	if _, isPoint := last["value"]; isPoint {
		t.Fatalf("stream ended on a point record %v, want a final error record", last)
	}
	if errText, _ := last["error"].(string); !strings.Contains(errText, context.DeadlineExceeded.Error()) {
		t.Fatalf("final record = %v, want the deadline error", last)
	}
	if m := s.Metrics(); m.StreamsAborted != 1 || m.Errors5xx != 1 {
		t.Fatalf("streams_aborted = %d, errors_5xx = %d, want 1 and 1 (a 504)", m.StreamsAborted, m.Errors5xx)
	}
}

func TestServeMonteCarloStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	recs := streamLines(t, ts.URL+"/v1/montecarlo", map[string]any{
		"digest": digest, "trials": 160, "chunk_trials": 64, "seed": 7,
	})
	// schedule record + 3 chunks (64+64+32) + done
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5: %v", len(recs), recs)
	}
	if _, ok := recs[0]["schedule"]; !ok {
		t.Fatalf("first record is not the schedule: %v", recs[0])
	}
	last := recs[len(recs)-1]
	if done, _ := last["done"].(bool); !done {
		t.Fatalf("final record not done: %v", last)
	}
	if trials, _ := last["trials"].(float64); trials != 160 {
		t.Fatalf("aggregate trials = %v, want 160", last["trials"])
	}
	// The MinTc-optimal schedule is exactly critical; worst-case draws
	// cannot violate it, so zero failing trials.
	if failing, _ := last["failing_trials"].(float64); failing != 0 {
		t.Fatalf("failing trials at the optimal schedule: %v", last)
	}
}

func TestServeMetricsAndHealth(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))
	if code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, nil); code != 200 {
		t.Fatalf("mintc: %d", code)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("readyz: %v %v", resp.StatusCode, err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m serve.Metrics
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if !m.Ready || m.State != "serving" {
		t.Fatalf("metrics state %q ready %v", m.State, m.Ready)
	}
	if m.Requests < 2 || m.Sessions != 1 {
		t.Fatalf("metrics counters off: %+v", m)
	}
	// The session layer's counters surface through the obs snapshot.
	if m.Obs.Counters["session_misses"] == 0 {
		t.Fatalf("obs session counters missing: %v", m.Obs.Counters)
	}
	if s.Metrics().Errors5xx != 0 {
		t.Fatal("5xx recorded during healthy traffic")
	}

	var list struct {
		Count    int `json:"count"`
		Sessions []struct {
			Digest  string   `json:"digest"`
			Tenants []string `json:"tenants"`
			Queries int64    `json:"queries"`
		} `json:"sessions"`
	}
	resp2, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if err := json.NewDecoder(resp2.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Sessions[0].Digest != digest || list.Sessions[0].Queries == 0 {
		t.Fatalf("sessions listing off: %+v", list)
	}
}

func TestServeTenantQuotaHTTP(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{TenantQuota: 1})
	openCircuit(t, ts, circuits.Example1(80))

	var errBody struct {
		Error string `json:"error"`
	}
	code := postJSON(t, ts.URL+"/v1/sessions", map[string]any{
		"tenant": "test", "circuit": circuitText(t, circuits.Example1(120)),
	}, &errBody)
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-quota open: status %d, want 429", code)
	}
	if !strings.Contains(errBody.Error, "quota") {
		t.Fatalf("error %q does not mention the quota", errBody.Error)
	}
}

func TestServeSessionCacheAcrossRequests(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	req := map[string]any{"digest": digest, "edits": []map[string]any{{"path": 3, "delay": 95.0}}}
	var first, second struct {
		Tc float64 `json:"tc"`
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", req, &first); code != 200 {
		t.Fatalf("first: %d", code)
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", req, &second); code != 200 {
		t.Fatalf("second: %d", code)
	}
	if first.Tc != second.Tc {
		t.Fatalf("identical queries disagreed: %v vs %v", first.Tc, second.Tc)
	}
	if hits := s.Metrics().Obs.Counters["session_hits"]; hits == 0 {
		t.Fatal("repeat query did not hit the session cache")
	}
}

// TestServeConcurrentMix hammers one server with a mixed workload to
// shake races out under -race.
func TestServeConcurrentMix(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	errs := make(chan error, 16)
	for i := 0; i < 8; i++ {
		go func(i int) {
			for j := 0; j < 10; j++ {
				var res struct {
					Tc float64 `json:"tc"`
				}
				body := map[string]any{
					"digest": digest,
					"edits":  []map[string]any{{"path": i % 4, "delay": 80.0 + float64(j)}},
				}
				if code := postJSON(t, ts.URL+"/v1/mintc", body, &res); code != 200 {
					errs <- fmt.Errorf("worker %d query %d: status %d", i, j, code)
					return
				}
			}
			errs <- nil
		}(i)
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeMonteCarloChunkInvariant: the campaign's numbers are a pure
// function of (seed, trials) — the RNG partition is canonical, so the
// client's chunk_trials changes only the streaming granularity.
func TestServeMonteCarloChunkInvariant(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))
	final := func(chunkTrials int) map[string]any {
		recs := streamLines(t, ts.URL+"/v1/montecarlo", map[string]any{
			"digest": digest, "trials": 100, "chunk_trials": chunkTrials, "seed": 42,
		})
		last := recs[len(recs)-1]
		if last["done"] != true {
			t.Fatalf("chunk_trials=%d: final record %v", chunkTrials, last)
		}
		return last
	}
	a, b := final(7), final(100)
	for _, k := range []string{"trials", "failing_trials", "violations", "worst_slack"} {
		if a[k] != b[k] {
			t.Fatalf("campaign not chunk-invariant: %s = %v (chunk 7) vs %v (chunk 100)", k, a[k], b[k])
		}
	}
}

func TestServeBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	// Just past the limit: the server rejects after reading 64 MB + 1,
	// and the small unread remainder fits in socket buffers so the
	// client's write completes and it sees the response.
	body := bytes.NewReader(make([]byte, 64<<20+16))
	resp, err := http.Post(ts.URL+"/v1/mintc", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", resp.StatusCode)
	}
	var errBody struct {
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&errBody); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errBody.Error, "read body") {
		t.Fatalf("413 error = %q, want a read-body error", errBody.Error)
	}
}
