package main

import (
	"io"
	"strings"
	"testing"
	"time"
)

// shortSearch shrinks the search's measuring spans for a test.
func shortSearch(t *testing.T) {
	t.Helper()
	capDur, window := capacityDur, probeWindow
	capacityDur, probeWindow = 400*time.Millisecond, 100*time.Millisecond
	t.Cleanup(func() { capacityDur, probeWindow = capDur, window })
}

func searchBench() *bench {
	return &bench{
		wl:   workload{name: "stub", cells: 2, law: "poisson", rate: 5, searchFrom: 0.8},
		seed: 1,
		out:  io.Discard,
	}
}

// A server whose every answer takes longer than the p99 limit fails every
// probe. The search must keep stepping down to the fixed rate and then fail
// the run, not report a rate whose p99 broke the limit.
func TestSearchFailsWhenNoRateMeetsP99(t *testing.T) {
	shortSearch(t)
	srv := stubMecd(t, func(int) (string, bool) {
		time.Sleep(time.Duration(1.2*p99LimitMS) * time.Millisecond)
		return "", true
	})
	b := searchBench()
	if got := b.search(srv.URL, newLedger(2)); got != 0 {
		t.Errorf("sustained %.1f/s, want 0", got)
	}
	if len(b.problems) != 1 || !strings.Contains(b.problems[0], "fixed rate") {
		t.Errorf("problems %v, want one naming the fixed rate", b.problems)
	}
}

// A server well inside the p99 limit sustains a rate near its capacity.
func TestSearchFindsRateWithinP99(t *testing.T) {
	shortSearch(t)
	const service = 5 * time.Millisecond
	srv := stubMecd(t, func(int) (string, bool) {
		time.Sleep(service)
		return "", true
	})
	b := searchBench()
	// Two connections of one request per 5 ms serve at most 400/s.
	got := b.search(srv.URL, newLedger(2))
	if len(b.problems) != 0 {
		t.Fatalf("problems: %v", b.problems)
	}
	if got < 100 || got > 2*float64(time.Second/service) {
		t.Errorf("sustained %.1f/s, want between 100/s and the stub's capacity", got)
	}
}
