package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/algorithms"
	"github.com/mecsim/l4e/internal/faults"
	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/sim"
	"github.com/mecsim/l4e/internal/topology"
	"github.com/mecsim/l4e/internal/workload"
)

// newChaosCell builds one cell like newCellPool's, with the given fault
// spec applied every slot.
func newChaosCell(t *testing.T, spec string, seed int64) *sim.Cell {
	t.Helper()
	net, err := topology.GTITM(12, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 8
	cfg.Horizon = 16
	w, err := workload.Generate(net, cfg, seed)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := faults.Parse(spec, net, seed+4000)
	if err != nil {
		t.Fatal(err)
	}
	r, err := sim.NewRunner(net, w, sim.Config{Seed: seed, DemandsGiven: true, Faults: sched})
	if err != nil {
		t.Fatal(err)
	}
	pol, err := algorithms.NewOLGD(algorithms.DefaultOLGDConfig(net.NumStations()))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := r.NewCell(pol)
	if err != nil {
		t.Fatal(err)
	}
	return cell
}

// readBody drains and closes a response body.
func readBody(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestDecideNeverAnswersEmpty200 drives /v1/decide through Handler() on a
// cell whose feedback injector corrupts every played delay to NaN
// (feedback:0:1). Corrupted readings are left out of played_delays, so every
// decide must answer 200 with a decodable body, nothing may fail to encode,
// and /v1/cells must keep answering 200.
func TestDecideNeverAnswersEmpty200(t *testing.T) {
	o := obs.New(obs.Options{})
	s, err := New(Config{Shards: 1, Observer: o}, []*sim.Cell{newChaosCell(t, "feedback:0:1", 760)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	for i := 0; i < 6; i++ {
		resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decide %d: status %d: %s", i, resp.StatusCode, body)
		}
		var dec struct {
			Stations []int          `json:"stations"`
			Played   map[string]any `json:"played_delays"`
		}
		if err := json.Unmarshal([]byte(body), &dec); err != nil || len(dec.Stations) == 0 {
			t.Fatalf("decide %d: 200 with body %q (%v)", i, body, err)
		}
		// Every reading was corrupted, so none may be reported.
		if len(dec.Played) != 0 {
			t.Fatalf("decide %d: corrupted readings reported as played delays: %v", i, dec.Played)
		}
	}
	if got := o.Snapshot().Counters["serve.encode_errors"]; got != 0 {
		t.Errorf("serve.encode_errors = %d, want 0", got)
	}
	resp, err := http.Get(ts.URL + "/v1/cells")
	if err != nil {
		t.Fatal(err)
	}
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/cells: status %d: %s", resp.StatusCode, body)
	}
}

// TestEchoedPlayedDelaysMatchAutoObserve drives two identical cells under
// feedback loss and corruption: one takes the default feedback (observe with
// no delays), the other echoes each decision's played_delays back through
// /v1/observe. Both learners must end in the same state. The injector's
// probabilities are cumulative, so feedback:0.5:0.5 drops or corrupts every
// reading (every echo is empty) while feedback:0.25:0.25 keeps about half.
func TestEchoedPlayedDelaysMatchAutoObserve(t *testing.T) {
	for _, spec := range []string{"feedback:0.5:0.5", "feedback:0.25:0.25"} {
		t.Run(spec, func(t *testing.T) {
			const seed = 770
			cells := []*sim.Cell{newChaosCell(t, spec, seed), newChaosCell(t, spec, seed)}
			s, err := New(Config{Shards: 1}, cells)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			withheld, echoed := 0, 0 // decisions reporting fewer / some delays
			for slot := 0; slot < 12; slot++ {
				for cell := range cells {
					resp := postJSON(t, ts.URL+"/v1/decide", fmt.Sprintf(`{"cell":%d}`, cell))
					body := readBody(t, resp)
					if resp.StatusCode != http.StatusOK {
						t.Fatalf("slot %d cell %d: decide status %d: %s", slot, cell, resp.StatusCode, body)
					}
					observe := `{"cell":0}`
					if cell == 1 {
						var dec struct {
							Stations []int              `json:"stations"`
							Played   map[string]float64 `json:"played_delays"`
						}
						if err := json.Unmarshal([]byte(body), &dec); err != nil {
							t.Fatal(err)
						}
						distinct := map[int]bool{}
						for _, i := range dec.Stations {
							distinct[i] = true
						}
						if len(dec.Played) < len(distinct) {
							withheld++
						}
						if len(dec.Played) > 0 {
							echoed++
						}
						delays, err := json.Marshal(dec.Played)
						if err != nil {
							t.Fatal(err)
						}
						observe = fmt.Sprintf(`{"cell":1,"delays":%s}`, delays)
					}
					resp = postJSON(t, ts.URL+"/v1/observe", observe)
					if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
						t.Fatalf("slot %d cell %d: observe status %d: %s", slot, cell, resp.StatusCode, body)
					}
				}
			}
			if withheld == 0 {
				t.Fatal("no reading was dropped or corrupted; the check is vacuous")
			}
			if spec == "feedback:0.25:0.25" && echoed == 0 {
				t.Fatal("no reading survived; the echo path taught the learner nothing")
			}
			shutdownNow(t, s)
			var digests [2]uint32
			for i, c := range cells {
				payload, err := c.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				if digests[i], err = sim.StateDigest(payload); err != nil {
					t.Fatal(err)
				}
			}
			if digests[0] != digests[1] {
				t.Fatalf("echoed played_delays digest %08x, default feedback %08x", digests[1], digests[0])
			}
		})
	}
}

// TestOversizedBodyRejected posts decide and observe bodies past the 1 MiB
// cap: each must answer 413, and the cell must not advance.
func TestOversizedBodyRejected(t *testing.T) {
	s, err := New(Config{Shards: 1}, newCellPool(t, 1, 780))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	vols := strings.TrimSuffix(strings.Repeat("1.5,", maxBodyBytes/4+1), ",")
	for _, route := range []string{"decide", "observe"} {
		resp := postJSON(t, ts.URL+"/v1/"+route, fmt.Sprintf(`{"cell":0,"volumes":[%s]}`, vols))
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s: oversized body got %d, want 413: %.200s", route, resp.StatusCode, body)
		}
	}
	if st := s.Cells()[0]; st.Slot != 0 || st.Decides != 0 || st.Observes != 0 {
		t.Fatalf("cell advanced on rejected bodies: %+v", st.CellStatus)
	}
	// A normal body still goes through.
	resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide after rejections: %d: %s", resp.StatusCode, body)
	}
	if st := s.Cells()[0]; st.Decides != 1 {
		t.Fatalf("decides after one decide = %d, want 1", st.Decides)
	}
}

// TestObserveRejectsUnknownStation posts feedback for stations outside the
// cell's network after a decide. Each must answer 400 without touching the
// cell (slot, counters and the pending decision stay as they were), and the
// shard worker must survive to serve the next decide.
func TestObserveRejectsUnknownStation(t *testing.T) {
	assertRejected(t, "/v1/observe", `{"cell":0,"delays":{"999":5}}`, `{"cell":0,"delays":{"-1":5}}`)
}

// TestObserveRejectsHostileDelays posts feedback with non-positive or
// implausibly large delays or volumes. Accepted, a negative delay steered
// every later decide onto the station with the hugely negative estimate, and
// 1e308 ms dropped every later decide to the greedy rung; each must be
// rejected like an unknown station.
func TestObserveRejectsHostileDelays(t *testing.T) {
	assertRejected(t, "/v1/observe",
		`{"cell":0,"delays":{"0":1e308,"1":-1e308}}`,
		`{"cell":0,"delays":{"0":1e308,"1":1e308}}`,
		`{"cell":0,"delays":{"0":0}}`,
		`{"cell":0,"delays":{"2":-5}}`,
		`{"cell":0,"volumes":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`)
}

// TestDecideRejectsHostileVolumes posts decides whose volumes are malformed
// or beyond any plausible demand while a decision is pending. A decide of
// volumes 1e308 advanced the cell and answered 500 (its delay was +Inf), and
// /v1/cells answered 500 from then on; a decide of the wrong length answered
// 400 after the pending slot had already been observed. Each must answer 400
// and leave the cell as it was.
func TestDecideRejectsHostileVolumes(t *testing.T) {
	assertRejected(t, "/v1/decide",
		`{"cell":0,"volumes":[1,2]}`,
		`{"cell":0,"volumes":[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]}`,
		`{"cell":0,"volumes":[1,1,1,1,1,1,1,0]}`)
}

// assertRejected decides once on a fresh one-cell server, then posts each
// body to path: every one must answer 400 and leave the cell's status, as
// GET /v1/cells reports it, as it was, and the next decide must still be
// served.
func assertRejected(t *testing.T, path string, bodies ...string) {
	t.Helper()
	s, err := New(Config{Shards: 1}, newCellPool(t, 1, 790))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer shutdownNow(t, s)
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide: %d: %s", resp.StatusCode, body)
	}
	cellStatus := func() sim.CellStatus {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/cells")
		if err != nil {
			t.Fatal(err)
		}
		body := readBody(t, resp)
		var out struct{ Cells []CellInfo }
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/cells: %d: %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Fatal(err)
		}
		return out.Cells[0].CellStatus
	}
	before := cellStatus()
	if !before.PendingObserve {
		t.Fatal("no decision pending after a decide")
	}
	for _, in := range bodies {
		resp := postJSON(t, ts.URL+path, in)
		body := readBody(t, resp)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s %s: %d, want 400: %s", path, in, resp.StatusCode, body)
		}
		if after := cellStatus(); after != before {
			t.Fatalf("%s %s changed the cell: %+v, was %+v", path, in, after, before)
		}
	}
	resp = postJSON(t, ts.URL+"/v1/decide", `{"cell":0}`)
	if body := readBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("decide after rejected bodies: %d: %s", resp.StatusCode, body)
	}
	if st := s.Cells()[0]; st.Slot != 1 || st.Decides != 2 || st.Observes != 1 {
		t.Fatalf("after the second decide: %+v, want slot 1, 2 decides, 1 observe", st.CellStatus)
	}
}
