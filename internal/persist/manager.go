package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/mecsim/l4e/internal/obs"
)

// File naming: generation g's snapshot is snap-<g>, and wal-<g> holds the
// op records issued after snap-<g> (up to snap-<g+1>). Generation 0 is
// genesis — there is no snap-0 file; wal-0 logs ops from a fresh cell, so
// a state directory is durable before the first checkpoint ever happens.
//
// Checkpointing to generation g+1 writes snap-<g+1>, rotates appends to a
// new wal-<g+1>, and prunes generations ≤ g-1, keeping the current and
// previous generation on disk. Recovery walks snapshots newest-first past
// any CRC failures (counted in persist.corrupt_drops), then replays every
// WAL from the baseline generation upward; the first torn or corrupt
// record ends the replayable history — later records and later WAL files
// are dropped, never skipped over.
const keepGenerations = 2

// Manager owns one cell's state directory: the current WAL for appends
// and the generation counter for checkpoints. It is not safe for
// concurrent use; in the serving path each cell's manager lives on that
// cell's shard goroutine.
type Manager struct {
	dir string
	o   *obs.Observer
	gen uint64
	w   *wal
}

// Recovery is what Open found on disk: the newest valid snapshot payload
// (nil at genesis) plus the op records to replay on top of it.
type Recovery struct {
	// BaselineGen is the generation of the snapshot the state restores
	// from; 0 with a nil Baseline means genesis (start from a fresh cell).
	BaselineGen uint64
	// Baseline is the snapshot payload, nil at genesis.
	Baseline []byte
	// Ops are the WAL records to replay, oldest first.
	Ops [][]byte
	// Barriers are indices into Ops where the dead process took a
	// checkpoint (a generation boundary crossed because that snapshot was
	// later found corrupt). Checkpoints are solver warm-state barriers, so
	// a bit-identical replay must re-apply the barrier before the op at
	// each of these indices.
	Barriers []int
	// CorruptDrops counts corruption casualties: CRC-invalid snapshots
	// skipped and WAL tails/files dropped.
	CorruptDrops int
	// Outcome summarizes the recovery: "genesis" (empty directory),
	// "clean" (everything validated), or "corrupt" (something dropped).
	Outcome string
}

func snapName(gen uint64) string { return fmt.Sprintf("snap-%d", gen) }
func walName(gen uint64) string  { return fmt.Sprintf("wal-%d", gen) }

// parseGen extracts the generation from a "prefix-<n>" file name.
func parseGen(name, prefix string) (uint64, bool) {
	s, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	g, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		return 0, false
	}
	return g, true
}

// scanDir lists the snapshot and WAL generations present in dir.
func scanDir(dir string) (snaps, wals []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if g, ok := parseGen(ent.Name(), "snap-"); ok {
			snaps = append(snaps, g)
		} else if g, ok := parseGen(ent.Name(), "wal-"); ok {
			wals = append(wals, g)
		}
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	sort.Slice(wals, func(i, j int) bool { return wals[i] < wals[j] })
	return snaps, wals, nil
}

// Open attaches to (creating if needed) a cell state directory, performs
// recovery scanning, truncates any torn WAL tail, and reopens the top WAL
// for appending. The returned Recovery tells the caller what state to
// rebuild before new ops flow. The observer may be nil. A snapshot of
// another SnapshotVersion is not corruption: Open then fails, naming both
// versions, before it has changed any file.
func Open(dir string, o *obs.Observer) (*Manager, *Recovery, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: creating state dir: %w", err)
	}
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: scanning state dir: %w", err)
	}
	rec := &Recovery{}

	// Baseline: newest snapshot that passes CRC; corrupt ones fall back a
	// generation.
	for i := len(snaps) - 1; i >= 0; i-- {
		path := filepath.Join(dir, snapName(snaps[i]))
		payload, err := readSnapshotFile(path)
		if errors.Is(err, errVersionSkew) {
			return nil, nil, fmt.Errorf("%s: %w", path, err)
		}
		if err != nil {
			rec.CorruptDrops++
			o.Inc("persist.corrupt_drops")
			continue
		}
		rec.BaselineGen = snaps[i]
		rec.Baseline = payload
		break
	}

	// Replay every WAL from the baseline generation upward, in order. The
	// chain must be contiguous: a missing or corrupt link invalidates all
	// later records, which are dropped (and their files deleted so a later
	// Open cannot resurrect them out of sequence).
	topGen := rec.BaselineGen
	topValidLen := int64(0)
	expect := rec.BaselineGen
	broken := false
	for _, g := range wals {
		if g < rec.BaselineGen {
			continue // superseded by the baseline snapshot
		}
		if broken || g != expect {
			rec.CorruptDrops++
			o.Inc("persist.corrupt_drops")
			os.Remove(filepath.Join(dir, walName(g)))
			broken = true
			continue
		}
		records, validLen, dropped, err := readWALFile(filepath.Join(dir, walName(g)))
		if err != nil {
			return nil, nil, fmt.Errorf("persist: reading %s: %w", walName(g), err)
		}
		if g > rec.BaselineGen {
			// Crossing into wal-<g> means the dead process checkpointed
			// here (snap-<g> exists but was rejected): a warm-state
			// barrier the replay must reproduce.
			rec.Barriers = append(rec.Barriers, len(rec.Ops))
		}
		rec.Ops = append(rec.Ops, records...)
		topGen, topValidLen = g, validLen
		if dropped {
			rec.CorruptDrops++
			o.Inc("persist.corrupt_drops")
			broken = true
			continue
		}
		expect = g + 1
	}

	w, err := openWAL(filepath.Join(dir, walName(topGen)), topValidLen)
	if err != nil {
		return nil, nil, err
	}

	switch {
	case rec.CorruptDrops > 0:
		rec.Outcome = "corrupt"
	case rec.Baseline == nil && len(rec.Ops) == 0:
		rec.Outcome = "genesis"
	default:
		rec.Outcome = "clean"
	}
	o.IncL("persist.recoveries", obs.L("outcome", rec.Outcome)...)

	return &Manager{dir: dir, o: o, gen: topGen, w: w}, rec, nil
}

// Dir returns the state directory.
func (m *Manager) Dir() string { return m.dir }

// Generation returns the current (top) generation.
func (m *Manager) Generation() uint64 { return m.gen }

// Append durably logs one op record to the current WAL.
func (m *Manager) Append(payload []byte) error {
	if err := m.w.append(payload); err != nil {
		return err
	}
	m.o.Inc("persist.wal_records")
	return nil
}

// Checkpoint atomically publishes a new snapshot generation, rotates the
// WAL, and prunes generations older than the previous one. After it
// returns, recovery needs only the new snapshot (or, if that proves
// corrupt, the previous generation plus both WALs).
func (m *Manager) Checkpoint(payload []byte) error {
	next := m.gen + 1
	if err := writeSnapshotFile(m.dir, snapName(next), payload); err != nil {
		return err
	}
	w, err := openWAL(filepath.Join(m.dir, walName(next)), 0)
	if err != nil {
		return err
	}
	old := m.w
	m.w, m.gen = w, next
	if err := old.close(); err != nil {
		return fmt.Errorf("persist: closing rotated WAL: %w", err)
	}
	// Prune: keep the current and previous generation.
	if next >= keepGenerations {
		snaps, wals, err := scanDir(m.dir)
		if err != nil {
			return fmt.Errorf("persist: pruning: %w", err)
		}
		cut := next - keepGenerations
		for _, g := range snaps {
			if g <= cut {
				os.Remove(filepath.Join(m.dir, snapName(g)))
			}
		}
		for _, g := range wals {
			if g <= cut {
				os.Remove(filepath.Join(m.dir, walName(g)))
			}
		}
	}
	m.o.Inc("persist.checkpoints")
	return nil
}

// Close syncs and closes the current WAL.
func (m *Manager) Close() error {
	if m == nil {
		return nil
	}
	return m.w.close()
}

// GenInfo describes one snapshot generation found by Inspect.
type GenInfo struct {
	Gen   uint64
	Valid bool
	Size  int64
}

// Inspection is a read-only view of a state directory for debugging
// (mecstat -state): which generations exist, which snapshot recovery
// would restore from, and how long the replayable WAL tail is.
type Inspection struct {
	Dir         string
	Snapshots   []GenInfo
	BaselineGen uint64
	Baseline    []byte // payload of the snapshot recovery would use; nil at genesis
	WALGens     []uint64
	WALRecords  int  // replayable op records after the baseline
	DroppedTail bool // true if a torn/corrupt WAL tail or broken chain was found
}

// Inspect scans a state directory without mutating it (no truncation, no
// pruning, no counters) — safe to run against a live daemon's directory.
// Like Open, it fails on a snapshot of another SnapshotVersion.
func Inspect(dir string) (*Inspection, error) {
	snaps, wals, err := scanDir(dir)
	if err != nil {
		return nil, err
	}
	ins := &Inspection{Dir: dir, WALGens: wals}
	// skew is the version skew Open would stop at: one with no valid
	// snapshot newer than it.
	var skew error
	for _, g := range snaps {
		path := filepath.Join(dir, snapName(g))
		info := GenInfo{Gen: g}
		if st, err := os.Stat(path); err == nil {
			info.Size = st.Size()
		}
		payload, err := readSnapshotFile(path)
		switch {
		case err == nil:
			info.Valid = true
			// Newest valid snapshot wins (ascending scan: keep overwriting).
			ins.BaselineGen = g
			ins.Baseline = payload
			skew = nil
		case errors.Is(err, errVersionSkew):
			skew = fmt.Errorf("%s: %w", path, err)
		}
		ins.Snapshots = append(ins.Snapshots, info)
	}
	if skew != nil {
		return nil, skew
	}
	expect := ins.BaselineGen
	for _, g := range wals {
		if g < ins.BaselineGen {
			continue
		}
		if g != expect {
			ins.DroppedTail = true
			break
		}
		records, _, dropped, err := readWALFile(filepath.Join(dir, walName(g)))
		if err != nil {
			return nil, err
		}
		ins.WALRecords += len(records)
		if dropped {
			ins.DroppedTail = true
			break
		}
		expect = g + 1
	}
	return ins, nil
}
