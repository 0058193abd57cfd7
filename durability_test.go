package l4e

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/mecsim/l4e/internal/obs"
	"github.com/mecsim/l4e/internal/persist"
	"github.com/mecsim/l4e/internal/sim"
)

// driveRounds plays n full Decide+Observe rounds against a cell, returning
// the realised per-slot delays.
func driveRounds(t testing.TB, c *Cell, n int) []float64 {
	t.Helper()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := c.Decide(nil)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if err := c.Observe(nil, nil); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		out = append(out, d.DelayMS)
	}
	return out
}

// TestChaosKillAndRestoreMatrix is the durability acceptance matrix: under
// every fault injector and for each of the paper's five policies (the OL_GD
// family carrying warm solver state across slots), a run checkpointed at a pseudo-random
// slot and restored into a fresh process continues bit-identically — same
// per-slot delays, same final state digest (which covers bandit arm pulls,
// predictor weights, fault counters, and the RNG cursor) — as the run that
// was never interrupted.
func TestChaosKillAndRestoreMatrix(t *testing.T) {
	specs := []struct{ label, spec string }{
		{"outage", "outage:0.3:2"},
		{"spike", "spike:0.3:3:2"},
		{"feedback", "feedback:0.3:0.3"},
		{"combined", "regional:0.2:2,feedback:0.2:0.1,spike:0.2:3:2"},
	}
	policies := chaosMatrixPolicies
	for si, sp := range specs {
		si, sp := si, sp
		t.Run(sp.label, func(t *testing.T) {
			t.Parallel()
			for pi, name := range policies {
				// Deterministic pseudo-random kill slot in [1, 10]: varies
				// across the matrix without flaking the suite.
				kill := 1 + (si*7+pi*3)%10

				// Reference run. The checkpoint itself is a solver
				// warm-state barrier, so the uninterrupted run must take it
				// at the same slot the victim dies at.
				ref := chaosScenario(t, sp.spec)
				refCell, err := ref.NewCell(name)
				if err != nil {
					t.Fatal(err)
				}
				driveRounds(t, refCell, kill)
				payload, err := refCell.Checkpoint()
				if err != nil {
					t.Fatalf("%s/%s: checkpoint at %d: %v", sp.label, name, kill, err)
				}
				wantTail := driveRounds(t, refCell, 12-kill)
				wantFinal, err := refCell.ExportState()
				if err != nil {
					t.Fatal(err)
				}

				// "Restarted process": fresh scenario, fresh cell, restore.
				got := chaosScenario(t, sp.spec)
				gotCell, err := got.NewCell(name)
				if err != nil {
					t.Fatal(err)
				}
				if err := gotCell.RestoreState(payload); err != nil {
					t.Fatalf("%s/%s: restore at %d: %v", sp.label, name, kill, err)
				}
				gotTail := driveRounds(t, gotCell, 12-kill)
				for i := range wantTail {
					if math.Float64bits(gotTail[i]) != math.Float64bits(wantTail[i]) {
						t.Fatalf("%s/%s killed at %d: slot %d delay %v != uninterrupted %v",
							sp.label, name, kill, kill+i, gotTail[i], wantTail[i])
					}
				}
				gotFinal, err := gotCell.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				wd, err := sim.StateDigest(wantFinal)
				if err != nil {
					t.Fatal(err)
				}
				gd, err := sim.StateDigest(gotFinal)
				if err != nil {
					t.Fatal(err)
				}
				if wd != gd {
					t.Fatalf("%s/%s killed at %d: final state digest %08x != uninterrupted %08x",
						sp.label, name, kill, gd, wd)
				}
			}
		})
	}
}

// TestSimplexWarmResumeDeterministic is the warm-basis bit-identity guard
// for the network-simplex engine. A checkpoint is a warm-state barrier: the
// snapshot deliberately excludes the spanning-tree basis, so the restored
// process solves its first slot cold — and the live process must drop its
// basis at the same slot (Workspace.ResetWarm -> flow.ResetBasis) for the
// two solve histories to stay bit-identical. A basis that leaked across the
// barrier, or a warm pivot sequence that depended on anything but the
// checkpointed state, shows up here as a diverged tail or digest.
func TestSimplexWarmResumeDeterministic(t *testing.T) {
	specs := []struct{ label, spec string }{
		{"quiet", ""},
		{"combined", "regional:0.2:2,feedback:0.2:0.1,spike:0.2:3:2"},
	}
	for _, sp := range specs {
		sp := sp
		t.Run(sp.label, func(t *testing.T) {
			t.Parallel()
			for _, kill := range []int{3, 7} {
				ref := chaosScenario(t, sp.spec)
				refCell, err := ref.NewCell("OL_GD")
				if err != nil {
					t.Fatal(err)
				}
				driveRounds(t, refCell, kill)
				payload, err := refCell.Checkpoint()
				if err != nil {
					t.Fatalf("kill %d: checkpoint: %v", kill, err)
				}
				wantTail := driveRounds(t, refCell, 12-kill)
				if st := refCell.Status(); st.WarmSolves == 0 {
					t.Fatalf("kill %d: no warm simplex solves; the identity check is vacuous", kill)
				}
				wantFinal, err := refCell.ExportState()
				if err != nil {
					t.Fatal(err)
				}

				got := chaosScenario(t, sp.spec)
				gotCell, err := got.NewCell("OL_GD")
				if err != nil {
					t.Fatal(err)
				}
				if err := gotCell.RestoreState(payload); err != nil {
					t.Fatalf("kill %d: restore: %v", kill, err)
				}
				gotTail := driveRounds(t, gotCell, 12-kill)
				for i := range wantTail {
					if math.Float64bits(gotTail[i]) != math.Float64bits(wantTail[i]) {
						t.Fatalf("killed at %d: slot %d delay %v != uninterrupted %v — basis barrier leaked",
							kill, kill+i, gotTail[i], wantTail[i])
					}
				}
				gotFinal, err := gotCell.ExportState()
				if err != nil {
					t.Fatal(err)
				}
				wd, err := sim.StateDigest(wantFinal)
				if err != nil {
					t.Fatal(err)
				}
				gd, err := sim.StateDigest(gotFinal)
				if err != nil {
					t.Fatal(err)
				}
				if wd != gd {
					t.Fatalf("killed at %d: final state digest %08x != uninterrupted %08x", kill, gd, wd)
				}
			}
		})
	}
}

// durableServer builds a one-cell OL_GD decision server over dir and waits
// for recovery. The warm-started policy is the hard case: its carried
// solver state makes every checkpoint a warm-state barrier the replay must
// reproduce exactly.
func durableServer(t *testing.T, dir string, o *Observer) *DecisionServer {
	t.Helper()
	scn, err := NewScenario(WithStations(12), WithSeed(880))
	if err != nil {
		t.Fatal(err)
	}
	cell, err := scn.NewCell("OL_GD")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewDecisionServer(DecisionServerConfig{
		Shards: 1, StateDir: dir, CheckpointEvery: 3, Observer: o,
	}, []*Cell{cell})
	if err != nil {
		t.Fatal(err)
	}
	<-srv.Recovered()
	return srv
}

func serverRounds(t *testing.T, s *DecisionServer, n int) []float64 {
	t.Helper()
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		d, err := s.Decide(0, nil)
		if err != nil {
			t.Fatalf("decide %d: %v", i, err)
		}
		if err := s.Observe(0, nil, nil); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
		out = append(out, d.DelayMS)
	}
	return out
}

func stopServer(t *testing.T, s *DecisionServer) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// newestSnap returns the path of the highest-generation snapshot in a cell
// state directory.
func newestSnap(t *testing.T, cellDir string) string {
	t.Helper()
	entries, err := os.ReadDir(cellDir)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []string
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), "snap-") {
			snaps = append(snaps, ent.Name())
		}
	}
	if len(snaps) == 0 {
		t.Fatalf("no snapshots in %s", cellDir)
	}
	sort.Strings(snaps)
	return filepath.Join(cellDir, snaps[len(snaps)-1])
}

// TestDurableCorruptSnapshotFallsBackAGeneration corrupts the newest
// snapshot after a kill and checks recovery falls back to the previous
// generation, replays BOTH generations' WALs (reproducing the checkpoint
// barrier between them), counts the casualty in persist.corrupt_drops, and
// still continues bit-identically to the uninterrupted run — never a panic,
// never silently wrong state.
func TestDurableCorruptSnapshotFallsBackAGeneration(t *testing.T) {
	const total, kill = 12, 8

	refDir := t.TempDir()
	ref := durableServer(t, refDir, nil)
	refDelays := serverRounds(t, ref, total)
	stopServer(t, ref)

	dir := t.TempDir()
	victim := durableServer(t, dir, nil)
	serverRounds(t, victim, kill)
	stopServer(t, victim)

	// 8 rounds at cadence 3 → snap-1 and snap-2 on disk. Flip a bit in the
	// newest snapshot's payload.
	snap := newestSnap(t, filepath.Join(dir, "cell-0"))
	if !strings.HasSuffix(snap, "snap-2") {
		t.Fatalf("newest snapshot = %s, want snap-2", snap)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-3] ^= 0x40
	if err := os.WriteFile(snap, data, 0o644); err != nil {
		t.Fatal(err)
	}

	o := NewObserver(ObserverOptions{})
	reborn := durableServer(t, dir, o)
	defer stopServer(t, reborn)
	if st := reborn.Cells()[0]; st.Slot != kill {
		t.Fatalf("recovered to slot %d, want %d", st.Slot, kill)
	}
	snap2 := o.Snapshot()
	if got := rootCounter(t, snap2, "persist.corrupt_drops"); got < 1 {
		t.Fatalf("persist.corrupt_drops = %d, want >= 1", got)
	}
	if got := rootCounter(t, snap2, "persist.recoveries"); got != 1 {
		t.Fatalf("persist.recoveries = %d, want 1", got)
	}
	tail := serverRounds(t, reborn, total-kill)
	for i, d := range tail {
		if math.Float64bits(d) != math.Float64bits(refDelays[kill+i]) {
			t.Fatalf("slot %d after fallback: delay %v != uninterrupted %v", kill+i, d, refDelays[kill+i])
		}
	}
}

// TestDurableTornWALTailDropped truncates the WAL mid-record after a kill:
// recovery must drop the torn record (count it), land on the durable
// prefix, and the re-issued round must continue bit-identically.
func TestDurableTornWALTailDropped(t *testing.T) {
	const total, kill = 9, 5

	refDir := t.TempDir()
	ref := durableServer(t, refDir, nil)
	refDelays := serverRounds(t, ref, total)
	stopServer(t, ref)

	dir := t.TempDir()
	victim := durableServer(t, dir, nil)
	serverRounds(t, victim, kill)
	stopServer(t, victim)

	// Tear the last record: 5 rounds at cadence 3 leave wal-1 ending with
	// the observe of slot 4. Chopping 3 bytes leaves a torn frame.
	wal := filepath.Join(dir, "cell-0", "wal-1")
	st, err := os.Stat(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(wal, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	o := NewObserver(ObserverOptions{})
	reborn := durableServer(t, dir, o)
	defer stopServer(t, reborn)
	if got := rootCounter(t, o.Snapshot(), "persist.corrupt_drops"); got < 1 {
		t.Fatalf("persist.corrupt_drops = %d, want >= 1", got)
	}
	// The dropped record was slot kill-1's observe: the cell recovers with
	// that observe pending and the slot counter one short.
	if cellSt := reborn.Cells()[0]; cellSt.Slot != kill-1 {
		t.Fatalf("recovered to slot %d, want %d (torn observe dropped)", cellSt.Slot, kill-1)
	}
	// Re-issue the lost observe; observes are deterministic given the cell
	// state, so the continuation matches the uninterrupted run exactly.
	if err := reborn.Observe(0, nil, nil); err != nil {
		t.Fatal(err)
	}
	tail := serverRounds(t, reborn, total-kill)
	for i, d := range tail {
		if math.Float64bits(d) != math.Float64bits(refDelays[kill+i]) {
			t.Fatalf("slot %d after torn tail: delay %v != uninterrupted %v", kill+i, d, refDelays[kill+i])
		}
	}
}

func rootCounter(t *testing.T, snap obs.Snapshot, name string) int64 {
	t.Helper()
	var sum int64
	for k, v := range snap.Counters {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// BenchmarkCheckpoint measures the steady-state cost of one durable
// checkpoint: serialise the full cell state and publish it atomically
// (write + fsync + rename + WAL rotation + pruning).
func BenchmarkCheckpoint(b *testing.B) {
	scn, err := NewScenario(WithStations(20), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	cell, err := scn.NewCell("OL_GD")
	if err != nil {
		b.Fatal(err)
	}
	driveRounds(b, cell, 10)
	mgr, _, err := persist.Open(b.TempDir(), nil)
	if err != nil {
		b.Fatal(err)
	}
	defer mgr.Close()
	payload, err := cell.ExportState()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := cell.Checkpoint()
		if err != nil {
			b.Fatal(err)
		}
		if err := mgr.Checkpoint(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecovery measures a full crash recovery: scan the state
// directory, restore the baseline snapshot into a fresh cell, and replay
// the WAL tail (5 rounds past the last checkpoint).
func BenchmarkRecovery(b *testing.B) {
	scn, err := NewScenario(WithStations(20), WithSeed(5))
	if err != nil {
		b.Fatal(err)
	}
	cell, err := scn.NewCell("OL_GD")
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	mgr, _, err := persist.Open(dir, nil)
	if err != nil {
		b.Fatal(err)
	}
	driveRounds(b, cell, 6)
	p, err := cell.Checkpoint()
	if err != nil {
		b.Fatal(err)
	}
	if err := mgr.Checkpoint(p); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := cell.Decide(nil); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Append(sim.EncodeDecideOp(nil)); err != nil {
			b.Fatal(err)
		}
		if err := cell.Observe(nil, nil); err != nil {
			b.Fatal(err)
		}
		if err := mgr.Append(sim.EncodeObserveOp(nil, nil)); err != nil {
			b.Fatal(err)
		}
	}
	if err := mgr.Close(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, rec, err := persist.Open(dir, nil)
		if err != nil {
			b.Fatal(err)
		}
		fresh, err := scn.NewCell("OL_GD")
		if err != nil {
			b.Fatal(err)
		}
		if err := fresh.RestoreState(rec.Baseline); err != nil {
			b.Fatal(err)
		}
		for _, op := range rec.Ops {
			if err := fresh.ApplyOp(op); err != nil {
				b.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			b.Fatal(err)
		}
	}
}
