package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// stubMecd answers /v1/decide with well-formed decisions, advancing each
// cell's slot, after calling before (if set) on every request.
func stubMecd(t *testing.T, before func(n int) (body string, ok bool)) *httptest.Server {
	t.Helper()
	var (
		mu    sync.Mutex
		n     int
		slots = map[string]int{}
	)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		if before != nil {
			if body, ok := before(k); !ok {
				w.WriteHeader(http.StatusOK)
				fmt.Fprint(w, body)
				return
			}
		}
		var req struct{ Cell int }
		if _, err := fmt.Fscanf(r.Body, `{"cell":%d}`, &req.Cell); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		mu.Lock()
		key := fmt.Sprint(req.Cell)
		slot := slots[key]
		slots[key]++
		mu.Unlock()
		fmt.Fprintf(w, `{"cell":%d,"slot":%d,"requests":[1,2],"stations":[3,4],"delay_ms":12.5,"played_delays":{"3":5}}`, req.Cell, slot)
	}))
	t.Cleanup(srv.Close)
	return srv
}

func httpTargets(base string, n int) []target {
	ts := make([]target, n)
	for i := range ts {
		ts[i] = newHTTPTarget(base)
	}
	return ts
}

// A 200 with an empty body — what mecd sends when it cannot encode a
// decision — is a failed op, and so is one with a malformed body.
func TestEmptyOrBadBodyIsFailure(t *testing.T) {
	for _, body := range []string{"", "{", `{"cell":0,"slot":0,"requests":[1],"stations":[],"played_delays":{}}`} {
		srv := stubMecd(t, func(int) (string, bool) { return body, false })
		sched := schedule("poisson", true, 100, 200*time.Millisecond, 1, 2, 1)
		p := drive(httpTargets(srv.URL, 1), sched, false, time.Second)
		st := p.stats()
		if st.attempted != len(sched[0]) || st.failed != st.attempted {
			t.Errorf("body %q: %d of %d ops failed, want all", body, st.failed, st.attempted)
		}
		if len(st.decideMS) != 0 {
			t.Errorf("body %q: %d failed ops leaked into the latency sample", body, len(st.decideMS))
		}
	}
}

func TestLedgerChecksSlotsAndCells(t *testing.T) {
	srv := stubMecd(t, nil)
	sched := schedule("poisson", false, 200, 300*time.Millisecond, 2, 4, 7)
	p := drive(httpTargets(srv.URL, 2), sched, false, time.Second)
	led := newLedger(4)
	if bad, err := led.record(p); bad != 0 {
		t.Fatalf("well-formed stub: %d bad decides: %v", bad, err)
	}
	rows := make([]cellRow, 4)
	for i := range rows {
		// The stub never sees an observe, so each cell awaits feedback for
		// its last decided slot.
		rows[i] = cellRow{Cell: i, Slot: led.next[i] - 1, AvgDelayMS: 12.5, PendingObserve: true}
	}
	if err := led.matches(rows); err != nil {
		t.Fatalf("matching rows rejected: %v", err)
	}
	rows[2].AvgDelayMS = 12.500000000000002
	if err := led.matches(rows); err == nil || !strings.Contains(err.Error(), "cell 2") {
		t.Errorf("a one-ulp avg_delay_ms difference passed: %v", err)
	}

	// A second pass over the same cells must continue their slots; replaying
	// slot numbers from zero is a protocol violation.
	again := drive(httpTargets(stubMecd(t, nil).URL, 2), sched, false, time.Second)
	if bad, _ := led.record(again); bad == 0 {
		t.Error("slots restarting at 0 were not flagged")
	}
}

// A server that stalls must show up as tail latency measured from each
// request's due time, not as a lower offered rate: every scheduled request
// is still sent, and the generator itself is not late.
func TestStallShowsAsTailLatency(t *testing.T) {
	const stall = 300 * time.Millisecond
	srv := stubMecd(t, func(n int) (string, bool) {
		if n == 20 {
			time.Sleep(stall)
		}
		return "", true
	})
	sched := schedule("poisson", true, 100, time.Second, 1, 1, 3)
	p := drive(httpTargets(srv.URL, 1), sched, false, 2*time.Second)
	st := p.stats()
	if p.unsent != 0 || len(st.decideMS) != len(sched[0]) {
		t.Fatalf("sent %d of %d scheduled (unsent %d): the stall lowered the offered rate",
			len(st.decideMS), len(sched[0]), p.unsent)
	}
	if p99 := pct(st.decideMS, 0.99); p99 < msOf(stall)*2/3 {
		t.Errorf("decide p99 %.1f ms: a %v stall is not visible in the tail", p99, stall)
	}
	if p50 := median(st.decideMS); p50 > msOf(stall)/3 {
		t.Errorf("decide p50 %.1f ms: the stall should only reach the tail", p50)
	}
	if l := pct(st.latenessMS, 0.99); l > maxLatenessMS {
		t.Errorf("generator lateness p99 %.1f ms: the server's stall was charged to the generator", l)
	}
	b := &bench{out: io.Discard}
	b.checkPhase("stall", p, newLedger(1))
	if len(b.problems) != 0 {
		t.Errorf("a server stall made the run invalid: %v", b.problems)
	}
}

// A generator that fell behind its own schedule, by sending late or by
// leaving entries unsent, makes the run incorrect rather than slow.
func TestLateGeneratorInvalidatesRun(t *testing.T) {
	punctual := func() [][]op {
		ops := make([]op, 100)
		for i := range ops {
			ops[i] = op{cell: 0, dec: &decision{Slot: i}}
		}
		return [][]op{ops}
	}
	late := punctual()
	for i := range late[0][:2] {
		late[0][i].lateness = time.Duration(2*maxLatenessMS) * time.Millisecond
	}
	for _, c := range []struct {
		name    string
		p       *phase
		invalid bool
	}{
		{"punctual", &phase{ops: punctual()}, false},
		{"late p99", &phase{ops: late}, true},
		{"one unsent", &phase{ops: punctual(), unsent: 1}, true},
	} {
		b := &bench{out: io.Discard}
		b.checkPhase(c.name, c.p, newLedger(1))
		if got := len(b.problems) > 0; got != c.invalid {
			t.Errorf("%s: invalid %v, want %v (problems %v)", c.name, got, c.invalid, b.problems)
		}
	}
}

func TestScheduleCountsAndDeterminism(t *testing.T) {
	for _, law := range []string{"poisson", "onoff"} {
		a := schedule(law, false, 60, 10*time.Second, 2, 16, 5)
		b := schedule(law, false, 60, 10*time.Second, 2, 16, 5)
		c := schedule(law, false, 60, 10*time.Second, 2, 16, 6)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Errorf("%s: same seed, different schedules", law)
		}
		if fmt.Sprint(a) == fmt.Sprint(c) {
			t.Errorf("%s: different seeds, same schedule", law)
		}
		for conn, es := range a {
			if len(es) != 300 || len(c[conn]) != 300 {
				t.Errorf("%s: conn %d has %d/%d arrivals, want exactly 300", law, conn, len(es), len(c[conn]))
			}
			perCell := map[int]int{}
			for i, e := range es {
				if e.cell%2 != conn {
					t.Fatalf("%s: conn %d asks cell %d it does not own", law, conn, e.cell)
				}
				if i > 0 && e.at < es[i-1].at {
					t.Fatalf("%s: conn %d arrivals out of order", law, conn)
				}
				perCell[e.cell]++
			}
			for cell, n := range perCell {
				if n < 37 || n > 38 {
					t.Errorf("%s: cell %d asked %d times, want 37 or 38", law, cell, n)
				}
			}
		}
	}
	// On-off bursts: the first quarter of every second carries 3× the mean.
	on := 0
	for _, e := range schedule("onoff", false, 60, 10*time.Second, 2, 16, 5)[0] {
		if e.at%onoffPeriod < onoffPeriod/4 {
			on++
		}
	}
	// Each of the 10 bursts expects 22.5; fractions carry to the next window.
	if on < 220 || on > 230 {
		t.Errorf("%d of 300 on-off arrivals fall in bursts, want 225 ± 5", on)
	}
}

func TestParseProc(t *testing.T) {
	stat, err := os.ReadFile("testdata/stat")
	if err != nil {
		t.Fatal(err)
	}
	status, err := os.ReadFile("testdata/status")
	if err != nil {
		t.Fatal(err)
	}
	s, err := parseProc(stat, status)
	if err != nil {
		t.Fatal(err)
	}
	// Captured from a mecd child after 300 decides: utime 194 and stime 14
	// ticks, VmHWM 14404 kB.
	if s.cpu != 2080*time.Millisecond || s.hwmKB != 14404 {
		t.Errorf("parsed cpu %v hwm %d kB, want 2.08s and 14404 kB", s.cpu, s.hwmKB)
	}
	// A command name holding spaces and parentheses must not shift fields.
	odd := strings.Replace(string(stat), "(mecd)", "(me c) d)", 1)
	if s2, err := parseProc([]byte(odd), status); err != nil || s2 != s {
		t.Errorf("odd command name: %+v, %v", s2, err)
	}
	if _, err := parseProc([]byte("12 (x) S 1"), status); err == nil {
		t.Error("truncated stat line parsed")
	}
}
