package workload

import (
	"bytes"
	"encoding/csv"
	"strconv"
	"testing"
)

// TestTraceCSVRoundTrip parses the CSV WriteTraceCSV writes and checks every
// row against the workload it came from: the header, one row per (slot,
// request) in order, and each column's value exactly, floats included.
func TestTraceCSVRoundTrip(t *testing.T) {
	net := testNet(t)
	cfg := DefaultConfig()
	cfg.NumRequests = 12
	cfg.Horizon = 15
	cfg.SessionOffProb = 0.1
	cfg.SessionOnProb = 0.4
	w, err := Generate(net, cfg, 31)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	header := []string{"slot", "request", "service", "cluster", "volume", "cluster_burst", "occupancy", "active"}
	if len(rows) != 1+cfg.Horizon*cfg.NumRequests {
		t.Fatalf("%d rows, want a header and %d records", len(rows), cfg.Horizon*cfg.NumRequests)
	}
	for i, col := range header {
		if rows[0][i] != col {
			t.Fatalf("header %v, want %v", rows[0], header)
		}
	}
	num := func(s string) float64 {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	for i, rec := range rows[1:] {
		tt, l := i/cfg.NumRequests, i%cfg.NumRequests
		c := w.Requests[l].Cluster
		active := 0.0
		if w.Active[tt][l] {
			active = 1
		}
		want := []float64{float64(tt), float64(l), float64(w.Requests[l].ServiceID), float64(c),
			w.Volumes[tt][l], float64(w.ClusterBurst[tt][c]), w.Occupancy[tt][c], active}
		for j, v := range want {
			if got := num(rec[j]); got != v {
				t.Fatalf("row (%d,%d) column %s = %v, want %v", tt, l, header[j], got, v)
			}
		}
	}
}
