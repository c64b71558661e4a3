//go:build faultinject

package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"mintc/internal/circuits"
	"mintc/internal/faultinject"
	"mintc/internal/serve"
)

// These tests prove the serve layer's fault-isolation claims with
// injected faults at the sites the package documents: a handler panic,
// a failed response write (slow client / mid-write disconnect), and a
// mid-stream chunk failure. Run with
//
//	go test -tags faultinject -race ./internal/serve/

func TestFaultHandlerPanicIsolated(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	// One request crashes inside the handler...
	faultinject.SetAfter("serve.handler", 0, 1, func() error {
		panic("injected handler crash")
	})
	var errBody struct {
		Error string `json:"error"`
	}
	code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &errBody)
	if code != http.StatusInternalServerError {
		t.Fatalf("crashed request: status %d, want 500", code)
	}

	// ...and the process shrugs: the panic is counted, the next request
	// on the same server is served normally.
	assertOnePanic(t, s)
	var res struct {
		Tc float64 `json:"tc"`
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &res); code != http.StatusOK || res.Tc <= 0 {
		t.Fatalf("post-panic request: status %d tc %v", code, res.Tc)
	}
}

// assertOnePanic requires exactly one isolated panic in both the serve
// counter and the obs counter engine panics also feed.
func assertOnePanic(t *testing.T, s *serve.Server) {
	t.Helper()
	m := s.Metrics()
	if m.PanicsIsolated != 1 {
		t.Fatalf("panics_isolated = %d, want 1", m.PanicsIsolated)
	}
	if got := m.Obs.Counters["panics_recovered"]; got != 1 {
		t.Fatalf("obs panics_recovered = %d, want 1", got)
	}
}

func TestFaultHandlerPanicIsolatedBinary(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, addr := startSniffing(t, serve.Config{})
	bc := dialBin(t, addr)
	resp := bc.call(t, "open", map[string]any{"tenant": "f", "circuit": circuitText(t, circuits.Example1(80))})
	if resp.Error != "" {
		t.Fatalf("open: %s", resp.Error)
	}
	var opened struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(resp.Body, &opened); err != nil {
		t.Fatal(err)
	}

	faultinject.SetAfter("serve.handler", 0, 1, func() error {
		panic("injected binary handler crash")
	})
	f := bc.call(t, "mintc", map[string]any{"digest": opened.Digest})
	if f.Status != http.StatusInternalServerError {
		t.Fatalf("crashed binary request: %+v, want status 500", f)
	}
	assertOnePanic(t, s)
	// The connection itself survives the isolated panic.
	f = bc.call(t, "mintc", map[string]any{"digest": opened.Digest})
	if f.Error != "" {
		t.Fatalf("post-panic binary request: %s", f.Error)
	}
}

func TestFaultWriteForfeitsResponseOnly(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	// Every write attempt for the next request fails — the model of a
	// client that disconnected mid-response. The server must forfeit
	// the response (connection reset), not crash.
	faultinject.Set("serve.write", func() error {
		return errors.New("injected write failure")
	})
	blob, _ := json.Marshal(map[string]any{"digest": digest})
	resp, err := http.Post(ts.URL+"/v1/mintc", "application/json", bytes.NewReader(blob))
	if err == nil {
		// A response got through despite the armed fault means the
		// abort path silently produced output.
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		t.Fatalf("expected a dropped connection, got status %d body %s", resp.StatusCode, raw)
	}
	faultinject.Reset()

	// Server-side the request completed; the next one is unaffected.
	var res struct {
		Tc float64 `json:"tc"`
	}
	if code := postJSON(t, ts.URL+"/v1/mintc", map[string]any{"digest": digest}, &res); code != http.StatusOK {
		t.Fatalf("post-fault request: status %d", code)
	}
	if m := s.Metrics(); m.Requests < 3 {
		t.Fatalf("requests = %d, want the forfeited one counted too", m.Requests)
	}
}

func TestFaultStreamChunkDisconnect(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, serve.Config{})
	digest := openCircuit(t, ts, circuits.Example1(80))

	// The first two chunks flow, then the client "disconnects": every
	// later chunk write fails.
	faultinject.SetAfter("serve.stream.chunk", 2, -1, func() error {
		return errors.New("injected mid-stream disconnect")
	})
	blob, _ := json.Marshal(map[string]any{
		"digest": digest, "path": 3, "values": []float64{80, 95, 110, 125},
	})
	resp, err := http.Post(ts.URL+"/v1/sweep", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var lines []map[string]any
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		lines = append(lines, rec)
	}
	// Truncated mid-stream: the 4-value sweep never finishes. The read
	// may also end in an unexpected-EOF — that is the disconnect.
	if len(lines) > 2 {
		t.Fatalf("got %d lines after a 2-chunk disconnect: %v", len(lines), lines)
	}
	for _, rec := range lines {
		if rec["done"] == true {
			t.Fatalf("truncated stream claims completion: %v", rec)
		}
	}
	if m := s.Metrics(); m.StreamsAborted != 1 {
		t.Fatalf("streams_aborted = %d, want 1", m.StreamsAborted)
	}
	faultinject.Reset()

	// The server streams the same sweep fine afterwards.
	full := streamLines(t, ts.URL+"/v1/sweep", map[string]any{
		"digest": digest, "path": 3, "values": []float64{80, 95, 110, 125},
	})
	if len(full) != 5 || full[4]["done"] != true {
		t.Fatalf("post-fault sweep: %v", full)
	}
}
