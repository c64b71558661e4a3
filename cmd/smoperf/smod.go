package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mintc/internal/serve"
)

// buildSmod compiles cmd/smod from the tree at root into
// root/.bench_build/smod (the build is cached by the go tool and never
// timed) and returns the binary's path.
func buildSmod(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "smod")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/smod")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build smod: %w", err)
	}
	return bin, nil
}

// smodProc is one smod child serving on a loopback port with its
// default flags.
type smodProc struct {
	cmd    *exec.Cmd
	base   string       // http://host:port
	log    bytes.Buffer // smod's stderr; read only once exited is closed
	exited chan struct{}
}

// startSmod launches smod and waits until /healthz answers.
func startSmod(bin string) (*smodProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	p := &smodProc{base: "http://" + addr, exited: make(chan struct{})}
	p.cmd = exec.Command(bin, "-addr", addr)
	p.cmd.Stderr = &p.log
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start smod: %w", err)
	}
	go func() {
		_ = p.cmd.Wait()
		close(p.exited)
	}()

	hc := &http.Client{Timeout: time.Second}
	for stop := time.Now().Add(15 * time.Second); time.Now().Before(stop); time.Sleep(2 * time.Millisecond) {
		select {
		case <-p.exited:
			return nil, fmt.Errorf("smod exited during start-up: %s", p.log.String())
		default:
		}
		resp, err := hc.Get(p.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return p, nil
			}
		}
	}
	p.kill()
	return nil, fmt.Errorf("smod at %s never became healthy", addr)
}

// stop drains smod with SIGTERM, waits for it to exit, and reports
// whether it logged "drain complete" (its graceful-drain contract).
func (p *smodProc) stop() bool {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.kill()
		return false
	}
	return strings.Contains(p.log.String(), "drain complete")
}

// kill ends smod at once and waits for it.
func (p *smodProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.exited
}

// peakRSSMB reads smod's high-water resident set (VmHWM) in MiB.
func (p *smodProc) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", p.cmd.Process.Pid)
}

// finish ends a measured window: it scrapes /metrics and the peak
// resident set, then drains smod and reports whether the drain
// completed. smod is stopped on every path.
func (p *smodProc) finish() (m serve.Metrics, rssMB float64, drained bool, err error) {
	if m, err = p.metrics(); err == nil {
		rssMB, err = p.peakRSSMB()
	}
	if err != nil {
		p.kill()
		return m, 0, false, err
	}
	return m, rssMB, p.stop(), nil
}

// servedLayers is the per-layer view of a window from two /metrics
// scrapes: the obs delta per op plus the serve layer's own counters.
func servedLayers(m0, m1 serve.Metrics, ops int) values {
	delta := m1.Obs
	addStats(&delta, m0.Obs, -1)
	v := layerValues(delta, ops)
	v["srv.errors_4xx"] = float64(m1.Errors4xx - m0.Errors4xx)
	v["srv.errors_5xx"] = float64(m1.Errors5xx - m0.Errors5xx)
	v["srv.shed"] = float64(m1.Shed - m0.Shed)
	v["srv.sessions_evicted"] = float64(m1.SessionsEvicted - m0.SessionsEvicted)
	return v
}

// metrics scrapes smod's /metrics document.
func (p *smodProc) metrics() (serve.Metrics, error) {
	var m serve.Metrics
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&m)
	return m, err
}

// newConn returns a client that holds at most one connection to smod:
// each load goroutine owns one, so a workload's connection count is its
// goroutine count. The timeout bounds a run against a hung daemon; the
// request then counts as failed.
func newConn() *http.Client {
	return &http.Client{Timeout: time.Minute, Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends one JSON request and reads the whole response.
func post(ctx context.Context, c *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// openSession registers circuit text with smod and returns its digest.
func openSession(c *http.Client, base, text string) (string, error) {
	body, err := json.Marshal(map[string]string{"tenant": "smoperf", "circuit": text})
	if err != nil {
		return "", err
	}
	status, b, err := post(context.Background(), c, base+"/v1/sessions", body)
	if err != nil {
		return "", err
	}
	if status != http.StatusOK {
		return "", fmt.Errorf("open session: %d %s", status, b)
	}
	var r struct {
		Digest string `json:"digest"`
	}
	if err := json.Unmarshal(b, &r); err != nil {
		return "", fmt.Errorf("open session: %w", err)
	}
	return r.Digest, nil
}
