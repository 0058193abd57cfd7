package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteTraceCSV exports the workload's demand trace as CSV, one row per
// (slot, request) pair with the hidden regime and observable occupancy
// columns. Floats are written in shortest round-trip form, so the file holds
// the trace exactly.
//
// Columns: slot, request, service, cluster, volume, cluster_burst,
// occupancy, active.
func (w *Workload) WriteTraceCSV(out io.Writer) error {
	cw := csv.NewWriter(out)
	header := []string{"slot", "request", "service", "cluster", "volume", "cluster_burst", "occupancy", "active"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("workload: writing header: %w", err)
	}
	for t := range w.Volumes {
		for l, v := range w.Volumes[t] {
			c := w.Requests[l].Cluster
			active := "1"
			if !w.Active[t][l] {
				active = "0"
			}
			rec := []string{
				strconv.Itoa(t),
				strconv.Itoa(l),
				strconv.Itoa(w.Requests[l].ServiceID),
				strconv.Itoa(c),
				strconv.FormatFloat(v, 'g', -1, 64),
				strconv.Itoa(w.ClusterBurst[t][c]),
				strconv.FormatFloat(w.Occupancy[t][c], 'g', -1, 64),
				active,
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("workload: writing row (%d,%d): %w", t, l, err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
