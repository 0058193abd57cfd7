package persist

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"github.com/mecsim/l4e/internal/obs"
)

func TestCodecRoundTrip(t *testing.T) {
	var e Encoder
	e.Uint32(0xdeadbeef)
	e.Uint64(1<<63 + 17)
	e.Int64(-42)
	e.Int(123456)
	e.Float64(math.Pi)
	e.Float64(math.NaN())
	e.Bool(true)
	e.Bool(false)
	e.String("hello, 世界")
	e.String("")
	e.Blob(nil)
	e.Blob([]byte{})
	e.Blob([]byte{1, 2, 3})
	e.Float64Slice(nil)
	e.Float64Slice([]float64{})
	e.Float64Slice([]float64{1.5, math.Inf(-1), math.NaN()})
	e.IntSlice(nil)
	e.IntSlice([]int{-1, 0, 7})
	e.BoolSlice(nil)
	e.BoolSlice([]bool{true, false, true})

	d := NewDecoder(e.Bytes())
	if v := d.Uint32(); v != 0xdeadbeef {
		t.Fatalf("Uint32: %#x", v)
	}
	if v := d.Uint64(); v != 1<<63+17 {
		t.Fatalf("Uint64: %d", v)
	}
	if v := d.Int64(); v != -42 {
		t.Fatalf("Int64: %d", v)
	}
	if v := d.Int(); v != 123456 {
		t.Fatalf("Int: %d", v)
	}
	if v := d.Float64(); v != math.Pi {
		t.Fatalf("Float64: %v", v)
	}
	if v := d.Float64(); !math.IsNaN(v) {
		t.Fatalf("NaN didn't round-trip: %v", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("bools didn't round-trip")
	}
	if s := d.String(); s != "hello, 世界" {
		t.Fatalf("String: %q", s)
	}
	if s := d.String(); s != "" {
		t.Fatalf("empty String: %q", s)
	}
	if b := d.Blob(); b != nil {
		t.Fatalf("nil Blob: %v", b)
	}
	if b := d.Blob(); b == nil || len(b) != 0 {
		t.Fatalf("empty Blob: %v", b)
	}
	if b := d.Blob(); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Blob: %v", b)
	}
	if v := d.Float64Slice(); v != nil {
		t.Fatalf("nil Float64Slice: %v", v)
	}
	if v := d.Float64Slice(); v == nil || len(v) != 0 {
		t.Fatalf("empty Float64Slice: %v", v)
	}
	fs := d.Float64Slice()
	if len(fs) != 3 || fs[0] != 1.5 || !math.IsInf(fs[1], -1) || !math.IsNaN(fs[2]) {
		t.Fatalf("Float64Slice: %v", fs)
	}
	if v := d.IntSlice(); v != nil {
		t.Fatalf("nil IntSlice: %v", v)
	}
	is := d.IntSlice()
	if len(is) != 3 || is[0] != -1 || is[2] != 7 {
		t.Fatalf("IntSlice: %v", is)
	}
	if v := d.BoolSlice(); v != nil {
		t.Fatalf("nil BoolSlice: %v", v)
	}
	bs := d.BoolSlice()
	if len(bs) != 3 || !bs[0] || bs[1] {
		t.Fatalf("BoolSlice: %v", bs)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderStickyErrors(t *testing.T) {
	// Truncated input.
	d := NewDecoder([]byte{1, 2, 3})
	_ = d.Uint64()
	if d.Err() == nil {
		t.Fatal("truncated Uint64 accepted")
	}
	// All later reads return zero values without panicking.
	if d.Int() != 0 || d.Float64() != 0 || d.String() != "" || d.Float64Slice() != nil {
		t.Fatal("poisoned decoder returned non-zero values")
	}

	// Hostile length: claims 1e18 elements.
	var e Encoder
	e.Bool(false)
	e.Int(1 << 60)
	d = NewDecoder(e.Bytes())
	if v := d.Float64Slice(); v != nil || d.Err() == nil {
		t.Fatalf("implausible length accepted: %v, %v", v, d.Err())
	}

	// Invalid bool byte is corruption, not coercion.
	d = NewDecoder([]byte{7})
	_ = d.Bool()
	if d.Err() == nil {
		t.Fatal("bool byte 7 accepted")
	}

	// Trailing garbage fails Finish.
	e = Encoder{}
	e.Int(1)
	d = NewDecoder(append(e.Bytes(), 0xff))
	_ = d.Int()
	if err := d.Finish(); err == nil {
		t.Fatal("trailing byte accepted by Finish")
	}
}

// TestCountingSourceFastForward is the RNG-cursor correctness guard: a
// restored source (fresh seed + FastForward) must continue the exact
// stream of the original, across a mixed diet of rand.Rand derivations.
func TestCountingSourceFastForward(t *testing.T) {
	src := NewCountingSource(42)
	rng := rand.New(src)
	for i := 0; i < 500; i++ {
		switch i % 5 {
		case 0:
			rng.Float64()
		case 1:
			rng.Intn(97) // rejection-sampling path
		case 2:
			rng.Int63()
		case 3:
			rng.NormFloat64() // rejection loop, variable draw count
		case 4:
			rng.Perm(7)
		}
	}
	cursor := src.Draws()

	restored := NewCountingSource(42)
	restored.FastForward(cursor)
	if restored.Draws() != cursor {
		t.Fatalf("cursor: %d != %d", restored.Draws(), cursor)
	}
	r2 := rand.New(restored)
	for i := 0; i < 200; i++ {
		a, b := rng.Float64(), r2.Float64()
		if a != b {
			t.Fatalf("draw %d diverged: %x != %x", i, a, b)
		}
	}
	if src.Draws() != restored.Draws() {
		t.Fatalf("cursors diverged: %d != %d", src.Draws(), restored.Draws())
	}
}

func TestSnapshotRoundTripAndCorruption(t *testing.T) {
	payload := []byte("the quick brown fox")
	file := encodeSnapshot(payload)
	got, err := parseSnapshot(file)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload: %q", got)
	}
	// Every single-byte flip must be detected.
	for i := range file {
		mut := bytes.Clone(file)
		mut[i] ^= 0x40
		if _, err := parseSnapshot(mut); err == nil {
			t.Fatalf("flip at byte %d undetected", i)
		}
	}
	// Every truncation must be detected.
	for n := 0; n < len(file); n++ {
		if _, err := parseSnapshot(file[:n]); err == nil {
			t.Fatalf("truncation to %d bytes undetected", n)
		}
	}
}

func TestWALValidPrefix(t *testing.T) {
	var file []byte
	recs := [][]byte{[]byte("a"), []byte("bb"), []byte("ccc")}
	for _, r := range recs {
		file = appendWALFrame(file, r)
	}
	got, validLen, dropped := parseWAL(file)
	if dropped || len(got) != 3 || int64(len(file)) != validLen {
		t.Fatalf("clean parse: %d records, validLen %d, dropped %v", len(got), validLen, dropped)
	}
	// Corrupting record 2's payload drops records 2 and 3, keeps record 1.
	mut := bytes.Clone(file)
	mut[walFrameHeader+1+walFrameHeader] ^= 0xff // first payload byte of record 2
	got, validLen, dropped = parseWAL(mut)
	if !dropped || len(got) != 1 || !bytes.Equal(got[0], []byte("a")) {
		t.Fatalf("corrupt mid-file: %d records, dropped %v", len(got), dropped)
	}
	if validLen != int64(walFrameHeader+1) {
		t.Fatalf("validLen %d", validLen)
	}
	// A torn tail (partial frame) keeps the full records before it.
	got, _, dropped = parseWAL(file[:len(file)-2])
	if !dropped || len(got) != 2 {
		t.Fatalf("torn tail: %d records, dropped %v", len(got), dropped)
	}
}

func drive(t *testing.T, m *Manager, records ...string) {
	t.Helper()
	for _, r := range records {
		if err := m.Append([]byte(r)); err != nil {
			t.Fatalf("append %q: %v", r, err)
		}
	}
}

func TestManagerCheckpointRecoverCycle(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Options{})
	m, rec, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "genesis" || rec.Baseline != nil || len(rec.Ops) != 0 {
		t.Fatalf("fresh dir: %+v", rec)
	}
	drive(t, m, "op1", "op2")
	if err := m.Checkpoint([]byte("state@2")); err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op3")
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rec2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Outcome != "clean" {
		t.Fatalf("outcome %q, drops %d", rec2.Outcome, rec2.CorruptDrops)
	}
	if string(rec2.Baseline) != "state@2" || rec2.BaselineGen != 1 {
		t.Fatalf("baseline: gen %d, %q", rec2.BaselineGen, rec2.Baseline)
	}
	if len(rec2.Ops) != 1 || string(rec2.Ops[0]) != "op3" {
		t.Fatalf("ops: %q", rec2.Ops)
	}
	// Appends continue the same WAL; a third recovery sees both records.
	drive(t, m2, "op4")
	m2.Close()
	_, rec3, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec3.Ops) != 2 || string(rec3.Ops[1]) != "op4" {
		t.Fatalf("ops after resume: %q", rec3.Ops)
	}
	snap := o.Snapshot()
	if snap.Counters["persist.checkpoints"] != 1 {
		t.Errorf("persist.checkpoints = %d", snap.Counters["persist.checkpoints"])
	}
	if snap.Counters["persist.wal_records"] != 4 {
		t.Errorf("persist.wal_records = %d", snap.Counters["persist.wal_records"])
	}
}

func TestManagerCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Options{})
	m, _, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op1")
	if err := m.Checkpoint([]byte("gen1")); err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op2")
	if err := m.Checkpoint([]byte("gen2")); err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op3")
	m.Close()

	// Bit-flip the newest snapshot: recovery must fall back to gen1 and
	// replay wal-1 + wal-2.
	path := filepath.Join(dir, snapName(2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, rec, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "corrupt" || rec.CorruptDrops == 0 {
		t.Fatalf("outcome %q drops %d", rec.Outcome, rec.CorruptDrops)
	}
	if string(rec.Baseline) != "gen1" || rec.BaselineGen != 1 {
		t.Fatalf("baseline gen %d %q", rec.BaselineGen, rec.Baseline)
	}
	if len(rec.Ops) != 2 || string(rec.Ops[0]) != "op2" || string(rec.Ops[1]) != "op3" {
		t.Fatalf("ops: %q", rec.Ops)
	}
	if o.Snapshot().Counters["persist.corrupt_drops"] == 0 {
		t.Error("persist.corrupt_drops not incremented")
	}
}

func TestManagerTornWALTailTruncated(t *testing.T) {
	dir := t.TempDir()
	o := obs.New(obs.Options{})
	m, _, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op1", "op2")
	m.Close()

	// Simulate a torn final record.
	path := filepath.Join(dir, walName(0))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	m2, rec, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Outcome != "corrupt" || len(rec.Ops) != 1 || string(rec.Ops[0]) != "op1" {
		t.Fatalf("recovery: outcome %q ops %q", rec.Outcome, rec.Ops)
	}
	// The torn bytes are physically gone; appending resumes cleanly.
	drive(t, m2, "op2b")
	m2.Close()
	_, rec2, err := Open(dir, o)
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Outcome != "clean" || len(rec2.Ops) != 2 || string(rec2.Ops[1]) != "op2b" {
		t.Fatalf("after truncation: outcome %q ops %q", rec2.Outcome, rec2.Ops)
	}
}

func TestManagerPrunesOldGenerations(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		drive(t, m, "op")
		if err := m.Checkpoint([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	snaps, wals, err := scanDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 2 || snaps[0] != 3 || snaps[1] != 4 {
		t.Fatalf("snapshots kept: %v", snaps)
	}
	if len(wals) != 2 || wals[0] != 3 || wals[1] != 4 {
		t.Fatalf("WALs kept: %v", wals)
	}
}

func TestInspectMatchesRecovery(t *testing.T) {
	dir := t.TempDir()
	m, _, err := Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op1")
	if err := m.Checkpoint([]byte("gen1")); err != nil {
		t.Fatal(err)
	}
	drive(t, m, "op2", "op3")
	m.Close()

	ins, err := Inspect(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ins.BaselineGen != 1 || string(ins.Baseline) != "gen1" {
		t.Fatalf("baseline: gen %d %q", ins.BaselineGen, ins.Baseline)
	}
	if ins.WALRecords != 2 || ins.DroppedTail {
		t.Fatalf("WAL: %d records, dropped %v", ins.WALRecords, ins.DroppedTail)
	}
	if len(ins.Snapshots) != 1 || !ins.Snapshots[0].Valid {
		t.Fatalf("snapshots: %+v", ins.Snapshots)
	}
}
