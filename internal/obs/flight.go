// Flight recorder: the post-hoc observability artifact. While the telemetry
// server exposes live state, the flight recorder appends one versioned JSONL
// record per simulated slot — instantaneous delay, cumulative regret against
// the shadow oracle, the learner's exploration state and per-arm statistics,
// prediction error, injected faults, and the solve-ladder tier that produced
// the slot — so convergence and degradation behaviour can be analysed after
// the run (cmd/mecstat) instead of reduced to end-of-horizon aggregates.

package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
)

// FlightVersion is the artifact schema version written into headers and the
// newest version ReadFlightRuns accepts.
const FlightVersion = 1

// Flight record type tags.
const (
	FlightTypeHeader  = "header"
	FlightTypeSlot    = "slot"
	FlightTypeSummary = "summary"
)

// FlightHeader opens one policy's run inside an artifact. An artifact may
// hold several runs (e.g. a multi-policy comparison) — each starts with its
// own header.
type FlightHeader struct {
	Type         string `json:"type"` // FlightTypeHeader
	Version      int    `json:"version"`
	Policy       string `json:"policy"`
	Slots        int    `json:"slots"`
	Stations     int    `json:"stations"`
	Requests     int    `json:"requests"`
	Seed         int64  `json:"seed"`
	DemandsGiven bool   `json:"demands_given"`
	TrackRegret  bool   `json:"track_regret"`
	Chaos        bool   `json:"chaos,omitempty"`
}

// FlightSlot is one slot's record. Optional pointer fields are present only
// when the producing run tracked them (regret needs the shadow oracle,
// epsilon/arm statistics need a bandit policy, prediction error needs hidden
// demands).
type FlightSlot struct {
	Type     string  `json:"type"` // FlightTypeSlot
	Policy   string  `json:"policy"`
	Slot     int     `json:"slot"`
	DelayMS  float64 `json:"delay_ms"`
	DecideMS float64 `json:"decide_ms"`
	// OracleDelayMS and the regret fields mirror the shadow oracle of Eq. (10).
	OracleDelayMS *float64 `json:"oracle_delay_ms,omitempty"`
	SlotRegretMS  *float64 `json:"slot_regret_ms,omitempty"`
	CumRegretMS   *float64 `json:"cum_regret_ms,omitempty"`
	// Epsilon/Explored capture the epsilon_t-greedy state of Algorithm 1.
	Epsilon  *float64 `json:"epsilon,omitempty"`
	Explored *bool    `json:"explored,omitempty"`
	// ArmPulls/ArmMeans are the learner's per-station pull counts and mean
	// delay estimates AFTER the slot's Observe.
	ArmPulls []int     `json:"arm_pulls,omitempty"`
	ArmMeans []float64 `json:"arm_means,omitempty"`
	// PredErrMAE is the realised-vs-predicted volume mean absolute error
	// (GAN/ARMA prediction quality under hidden demands).
	PredErrMAE *float64 `json:"pred_err_mae,omitempty"`
	// Fault and degradation state.
	FaultsInjected int            `json:"faults_injected,omitempty"`
	FaultKinds     map[string]int `json:"fault_kinds,omitempty"`
	Solver         string         `json:"solver,omitempty"` // ladder tier that produced the slot
	FallbackSolves int            `json:"fallback_solves,omitempty"`
	Shed           int            `json:"shed,omitempty"`
	DecideFailed   bool           `json:"decide_failed,omitempty"`
	Degraded       bool           `json:"degraded,omitempty"`
	Overload       bool           `json:"overload,omitempty"`
}

// FlightSummary closes one policy's run.
type FlightSummary struct {
	Type           string   `json:"type"` // FlightTypeSummary
	Policy         string   `json:"policy"`
	Slots          int      `json:"slots"`
	AvgDelayMS     float64  `json:"avg_delay_ms"`
	TotalRuntimeMS float64  `json:"total_runtime_ms"`
	CumRegretMS    *float64 `json:"cum_regret_ms,omitempty"`
	OverloadSlots  int      `json:"overload_slots,omitempty"`
	DegradedSlots  int      `json:"degraded_slots,omitempty"`
	FallbackSolves int      `json:"fallback_solves,omitempty"`
	DecideFailures int      `json:"decide_failures,omitempty"`
	FaultsInjected int      `json:"faults_injected,omitempty"`
}

// FlightRecorder appends flight records as buffered JSONL. All methods are
// safe on a nil receiver (a nil recorder IS the disabled recorder) and
// concurrent-safe; write errors are latched and surfaced by Flush, keeping
// the per-slot path unconditional.
type FlightRecorder struct {
	mu  sync.Mutex
	bw  *bufio.Writer
	enc *json.Encoder
	err error
}

// NewFlightRecorder wraps w in a buffered JSONL recorder.
func NewFlightRecorder(w io.Writer) *FlightRecorder {
	bw := bufio.NewWriter(w)
	return &FlightRecorder{bw: bw, enc: json.NewEncoder(bw)}
}

func (r *FlightRecorder) record(v any) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return
	}
	if err := r.enc.Encode(v); err != nil {
		r.err = err
	}
}

// RecordHeader opens a run. Type and Version are stamped by the recorder.
func (r *FlightRecorder) RecordHeader(h FlightHeader) {
	h.Type = FlightTypeHeader
	h.Version = FlightVersion
	r.record(h)
}

// RecordSlot appends one slot record.
func (r *FlightRecorder) RecordSlot(s FlightSlot) {
	s.Type = FlightTypeSlot
	r.record(s)
}

// RecordSummary closes a run.
func (r *FlightRecorder) RecordSummary(s FlightSummary) {
	s.Type = FlightTypeSummary
	r.record(s)
}

// Flush drains the buffer and returns the first error seen.
func (r *FlightRecorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.err != nil {
		return r.err
	}
	return r.bw.Flush()
}

// FlightRun is one policy's decoded run: header, slot records in slot order,
// and the closing summary (nil when the run was interrupted before it was
// written — the slots that made it to disk still parse).
type FlightRun struct {
	Header  FlightHeader
	Slots   []FlightSlot
	Summary *FlightSummary
}

// ReadFlightRuns parses a flight-recorder artifact back into runs. Unknown
// record types are skipped (forward compatibility within a version); a slot
// or summary before any header, a malformed line, or an unsupported version
// fail loudly — a truncated artifact is data loss worth reporting.
func ReadFlightRuns(r io.Reader) ([]FlightRun, error) {
	var runs []FlightRun
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &probe); err != nil {
			return runs, fmt.Errorf("obs: flight line %d: %w", line, err)
		}
		switch probe.Type {
		case FlightTypeHeader:
			var h FlightHeader
			if err := json.Unmarshal(raw, &h); err != nil {
				return runs, fmt.Errorf("obs: flight line %d: %w", line, err)
			}
			if h.Version < 1 || h.Version > FlightVersion {
				return runs, fmt.Errorf("obs: flight line %d: unsupported version %d (reader supports <= %d)", line, h.Version, FlightVersion)
			}
			runs = append(runs, FlightRun{Header: h})
		case FlightTypeSlot:
			if len(runs) == 0 {
				return runs, fmt.Errorf("obs: flight line %d: slot record before any header", line)
			}
			var s FlightSlot
			if err := json.Unmarshal(raw, &s); err != nil {
				return runs, fmt.Errorf("obs: flight line %d: %w", line, err)
			}
			cur := &runs[len(runs)-1]
			cur.Slots = append(cur.Slots, s)
		case FlightTypeSummary:
			if len(runs) == 0 {
				return runs, fmt.Errorf("obs: flight line %d: summary record before any header", line)
			}
			var s FlightSummary
			if err := json.Unmarshal(raw, &s); err != nil {
				return runs, fmt.Errorf("obs: flight line %d: %w", line, err)
			}
			runs[len(runs)-1].Summary = &s
		default:
			// Skip unknown record types within a supported version.
		}
	}
	if err := sc.Err(); err != nil {
		return runs, fmt.Errorf("obs: reading flight artifact: %w", err)
	}
	return runs, nil
}
