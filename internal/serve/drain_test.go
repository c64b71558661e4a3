package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"mintc/internal/circuits"
	"mintc/internal/serve"
)

// startStream opens an NDJSON stream and returns a line scanner; the
// caller reads at its own pace (unlike streamLines, which drains the
// whole stream).
func startStream(t *testing.T, url string, body any) (*http.Response, *bufio.Scanner) {
	t.Helper()
	blob, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return resp, sc
}

func TestDrainCompletesInflightStreams(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{DrainTimeout: 20 * time.Second})
	digest := openCircuit(t, ts, circuits.Example1(80))

	resp, sc := startStream(t, ts.URL+"/v1/sweep", map[string]any{
		"digest": digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 2000,
	})
	defer resp.Body.Close()
	// Confirm the stream is in flight before draining.
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// The generous budget lets the in-flight stream run to completion.
	var last map[string]any
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if sc.Err() != nil {
		t.Fatalf("stream read: %v", sc.Err())
	}
	if last == nil || last["done"] != true {
		t.Fatalf("stream final record = %v, want done:true", last)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Once draining, new work is refused with the typed error...
	var errBody struct {
		Error    string `json:"error"`
		Draining bool   `json:"draining"`
	}
	code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &errBody)
	if code != http.StatusServiceUnavailable || !errBody.Draining {
		t.Fatalf("post-drain request: status %d body %+v, want 503 draining", code, errBody)
	}
	if !strings.Contains(errBody.Error, serve.ErrDraining.Error()) {
		t.Fatalf("post-drain error = %q, want it to carry %q", errBody.Error, serve.ErrDraining)
	}
	// ...and readiness reports not-ready while liveness stays up.
	for path, want := range map[string]int{"/readyz": 503, "/healthz": 200} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != want {
			t.Fatalf("%s after drain: %d, want %d", path, r.StatusCode, want)
		}
	}
	m := s.Metrics()
	if m.DrainRejects == 0 {
		t.Fatal("drain_rejects not counted")
	}
	if m.State != "drained" || m.Ready {
		t.Fatalf("metrics state=%q ready=%v after drain", m.State, m.Ready)
	}
}

// TestDrainAbortsLongStreams: a stream still running at the drain
// deadline, whose client keeps reading, notices the abort within the
// grace window and ends with the typed drain record, so Drain itself
// succeeds, and only once the handler has returned.
func TestDrainAbortsLongStreams(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{DrainTimeout: 150 * time.Millisecond})
	digest := openCircuit(t, ts, circuits.Example1(80))

	// A sweep far too long to finish inside the drain budget.
	resp, sc := startStream(t, ts.URL+"/v1/sweep", map[string]any{
		"digest": digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 100000,
	})
	defer resp.Body.Close()
	if !sc.Scan() {
		t.Fatalf("stream never started: %v", sc.Err())
	}
	type outcome struct {
		last map[string]any
		err  error
	}
	read := make(chan outcome, 1)
	go func() {
		var o outcome
		for sc.Scan() {
			o.last = nil
			if err := json.Unmarshal(sc.Bytes(), &o.last); err != nil {
				o.err = fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
				break
			}
		}
		read <- o
	}()

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if m := s.Metrics(); m.StreamsDrained != 1 {
		t.Fatalf("streams_drained = %d when Drain returned, want 1", m.StreamsDrained)
	}

	o := <-read
	if o.err != nil {
		t.Fatal(o.err)
	}
	last := o.last
	if last == nil {
		t.Fatal("stream ended without a final record")
	}
	if last["done"] == true {
		t.Fatal("100k-point sweep claims completion inside a 150ms drain budget")
	}
	errText, _ := last["error"].(string)
	if !strings.Contains(errText, serve.ErrDraining.Error()) || last["draining"] != true {
		t.Fatalf("final record = %v, want typed drain error with draining:true", last)
	}
}

// TestDrainCutsStalledStreamWrite: a client that stops reading leaves
// its stream blocked in a write once the socket buffers fill. The drain
// abort cuts that write's deadline, so Drain still succeeds within its
// budget and the stream has ended, and been counted, when it returns;
// the client then reads to the end of a cut stream instead of hanging.
func TestDrainCutsStalledStreamWrite(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{DrainTimeout: 300 * time.Millisecond})
	digest := openCircuit(t, ts, circuits.Example1(80))

	resp, sc := startStream(t, ts.URL+"/v1/sweep", map[string]any{
		"digest": digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 100000,
	})
	defer resp.Body.Close()
	if !sc.Scan() {
		t.Fatalf("stream never started: %v", sc.Err())
	}

	start := time.Now()
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain with a stalled client: %v", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("Drain took %v with a 300ms budget and at most 2s of grace", d)
	}
	if m := s.Metrics(); m.StreamsDrained+m.StreamsAborted != 1 {
		t.Fatalf("streams drained %d, aborted %d when Drain returned: the stalled stream had not ended",
			m.StreamsDrained, m.StreamsAborted)
	}
	done := make(chan struct{})
	go func() {
		_, _ = io.Copy(io.Discard, resp.Body)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stalled client still reading 5s after drain")
	}
}

// TestDrainSoakNoGoroutineLeaks runs N concurrent streaming sweeps,
// drains mid-stream, and verifies every stream terminates with either a
// completion or the typed drain error — and that no goroutines leak.
func TestDrainSoakNoGoroutineLeaks(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{DrainTimeout: 250 * time.Millisecond})
	digest := openCircuit(t, ts, circuits.Example1(80))

	baseline := runtime.NumGoroutine()

	const n = 6
	type outcome struct {
		last map[string]any
		err  error
	}
	started := make(chan struct{}, n)
	results := make(chan outcome, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blob, _ := json.Marshal(map[string]any{
				"digest": digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 50000,
			})
			resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(blob))
			if err != nil {
				results <- outcome{err: err}
				return
			}
			defer resp.Body.Close()
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
			first := true
			var last map[string]any
			for sc.Scan() {
				if first {
					first = false
					started <- struct{}{}
				}
				last = nil
				if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
					results <- outcome{err: err}
					return
				}
			}
			results <- outcome{last: last, err: sc.Err()}
		}()
	}

	for i := 0; i < n; i++ {
		select {
		case <-started:
		case <-time.After(10 * time.Second):
			t.Fatal("streams did not all start")
		}
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	wg.Wait()
	close(results)

	for res := range results {
		if res.err != nil {
			t.Fatalf("stream failed outright: %v", res.err)
		}
		if res.last == nil {
			t.Fatal("stream ended without a final record")
		}
		if res.last["done"] == true {
			continue // completed inside the budget
		}
		errText, _ := res.last["error"].(string)
		if !strings.Contains(errText, serve.ErrDraining.Error()) {
			t.Fatalf("stream ended with %v, want done or typed drain error", res.last)
		}
	}

	// Every handler goroutine must be gone. Idle keep-alive connections
	// hold client-side goroutines; drop them before counting.
	http.DefaultClient.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= baseline+2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines leaked after drain: baseline %d, now %d\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestDrainBinaryConnection(t *testing.T) {
	s, addr := startSniffing(t, serve.Config{DrainTimeout: time.Second})
	bc := dialBin(t, addr)
	resp := bc.call(t, "open", map[string]any{"tenant": "bin", "circuit": circuitText(t, circuits.Example1(80))})
	if resp.Error != "" {
		t.Fatalf("open: %s", resp.Error)
	}
	var opened struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(resp.Body, &opened); err != nil {
		t.Fatal(err)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The idle connection learns about the drain on its next request:
	// a typed drain frame, then close. The server may notice the drain
	// between requests, before the frame arrives, or read the frame
	// first; either way the client's write must succeed and the drain
	// frame must arrive.
	bc.id++
	if err := serve.EncodeFrame(bc.c, map[string]any{"id": bc.id, "method": "mintc", "body": map[string]any{"digest": opened.Digest}}); err != nil {
		t.Fatal(err)
	}
	var f binResp
	if err := serve.DecodeFrame(bc.r, &f); err != nil {
		t.Fatalf("expected a drain frame, got read error %v", err)
	}
	if !f.Draining || f.Status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain frame = %+v, want draining 503", f)
	}
	var one [1]byte
	bc.c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := bc.r.Read(one[:]); err == nil {
		t.Fatal("connection still open after drain frame")
	}
}

func TestDrainIdempotentAndDeadline(t *testing.T) {
	s, _ := newTestServer(t, serve.Config{DrainTimeout: time.Second})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	// Draining an already-drained server is a no-op, not an error.
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if errors.Is(s.Drain(context.Background()), serve.ErrDrainTimeout) {
		t.Fatal("idle drain reported timeout")
	}
}

// TestServeListenerDrainCompletesInflightStream is the real-listener
// twin of TestDrainCompletesInflightStreams: when Drain closes the
// listener, Serve must keep the underlying HTTP server alive until
// drain completes — tearing it down at accept-loop exit would sever
// every in-flight connection at drain start (the cmd/smod SIGTERM
// path, which httptest-based tests never exercise).
func TestServeListenerDrainCompletesInflightStream(t *testing.T) {
	s := serve.New(serve.Config{DrainTimeout: 20 * time.Second})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- s.Serve(l) }()
	t.Cleanup(s.Close)
	url := "http://" + l.Addr().String()

	var opened struct {
		Digest string `json:"digest"`
	}
	if code := postJSON(t, url+"/v1/sessions", map[string]any{
		"tenant": "test", "circuit": circuitText(t, circuits.Example1(80)),
	}, &opened); code != http.StatusOK {
		t.Fatalf("open: status %d", code)
	}

	resp, sc := startStream(t, url+"/v1/sweep", map[string]any{
		"digest": opened.Digest, "path": 3, "from": 60.0, "to": 120.0, "steps": 2000,
	})
	defer resp.Body.Close()
	for i := 0; i < 3; i++ {
		if !sc.Scan() {
			t.Fatalf("stream ended after %d lines: %v", i, sc.Err())
		}
	}

	drainErr := make(chan error, 1)
	go func() { drainErr <- s.Drain(context.Background()) }()

	// The generous drain budget lets the stream run to completion; a
	// premature http.Server.Close shows up here as a read error or a
	// missing done record.
	var last map[string]any
	for sc.Scan() {
		last = nil
		if err := json.Unmarshal(sc.Bytes(), &last); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
	}
	if sc.Err() != nil {
		t.Fatalf("stream severed during drain: %v", sc.Err())
	}
	if last == nil || last["done"] != true {
		t.Fatalf("stream final record = %v, want done:true", last)
	}
	if err := <-drainErr; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	select {
	case err := <-serveErr:
		if err != nil {
			t.Fatalf("Serve returned %v after drain, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after drain completed")
	}
}

// TestDrainClosesIdleBinaryConnection: a binary client idle between
// requests when drain begins is not left to the idle timeout. It gets
// the typed drain frame and then EOF within a second, while Drain
// itself returns at once.
func TestDrainClosesIdleBinaryConnection(t *testing.T) {
	s, addr := startSniffing(t, serve.Config{DrainTimeout: time.Second})
	bc := dialBin(t, addr)
	if resp := bc.call(t, "sessions", map[string]any{}); resp.Error != "" {
		t.Fatalf("sessions: %s", resp.Error)
	}

	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	deadline := time.Now().Add(time.Second)
	bc.c.SetReadDeadline(deadline)
	frames := 0
	for {
		var f binResp
		err := serve.DecodeFrame(bc.r, &f)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("idle connection not closed within 1s of drain: %v after %d frame(s)", err, frames)
		}
		if !f.Draining || f.Status != http.StatusServiceUnavailable {
			t.Fatalf("frame on idle connection = %+v, want the typed drain frame", f)
		}
		frames++
	}
	if frames != 1 {
		t.Fatalf("got %d drain frames before EOF, want 1", frames)
	}
}
