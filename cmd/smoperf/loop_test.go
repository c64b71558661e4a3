package main

import (
	"testing"
	"time"
)

// fakeClock advances only when the loop sleeps or a send takes time.
type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

func (c *fakeClock) SleepUntil(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}

// TestOpenLoopStallInflatesQueuedLatency stalls the server on one
// request and checks that every request due during the stall is sent
// late and carries the wait in its latency, measured from its due time
// — the queueing a closed loop would hide.
func TestOpenLoopStallInflatesQueuedLatency(t *testing.T) {
	const m = time.Millisecond
	clk := &fakeClock{}
	due := []time.Duration{0, 1 * m, 2 * m, 3 * m, 4 * m, 30 * m}
	service := func(i int) time.Duration {
		if i == 1 {
			return 20 * m // the stall
		}
		return m / 10
	}
	sendAt, doneAt := openLoop(clk, due, 1, func(_, i int) { clk.now += service(i) })

	wantSend := []time.Duration{0, 1 * m, 21 * m, 21*m + m/10, 21*m + 2*m/10, 30 * m}
	wantLat := []time.Duration{m / 10, 20 * m, 19*m + m/10, 18*m + 2*m/10, 17*m + 3*m/10, m / 10}
	for i := range due {
		if sendAt[i] != wantSend[i] {
			t.Errorf("request %d sent at %v, want %v", i, sendAt[i], wantSend[i])
		}
		if lat := doneAt[i] - due[i]; lat != wantLat[i] {
			t.Errorf("request %d latency %v, want %v", i, lat, wantLat[i])
		}
	}
}

// TestOpenLoopSendsEveryRequestOnce drives two real senders.
func TestOpenLoopSendsEveryRequestOnce(t *testing.T) {
	due := make([]time.Duration, 50)
	for i := range due {
		due[i] = time.Duration(i) * 100 * time.Microsecond
	}
	sent := make([]int, len(due))
	sendAt, doneAt := openLoop(wallClock{time.Now()}, due, 2, func(_, i int) { sent[i]++ })
	for i := range due {
		if sent[i] != 1 {
			t.Errorf("request %d sent %d times", i, sent[i])
		}
		if sendAt[i] < due[i] || doneAt[i] < sendAt[i] {
			t.Errorf("request %d: due %v, sent %v, done %v", i, due[i], sendAt[i], doneAt[i])
		}
	}
}

// TestSelfTimeOfNestedSpans checks that a span's self time excludes
// its children once each, clipped to the parent, and that grandchildren
// count against their own parent only.
func TestSelfTimeOfNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "parse", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "solve", Start: 30, End: 60},  // overlaps parse
		{ID: 3, Parent: 0, Name: "solve", Start: 90, End: 120}, // runs past the parent
		{ID: 4, Parent: 1, Name: "lex", Start: 20, End: 25},
		{ID: 5, Parent: -1, Name: "op", Start: 200, End: 210},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"op": 40 + 10, "parse": 25, "solve": 60, "lex": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %s = %d, want %d", name, got[name], w)
		}
	}
}
