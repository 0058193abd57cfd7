package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot file layout (all little-endian):
//
//	[magic u32][version u32][payload length u64][crc32(payload) u32][payload]
//
// Snapshots are written atomically: temp file in the same directory,
// fsync, rename over the final name, fsync the directory. A reader
// therefore sees either the previous generation or a complete new file,
// never a torn one — and if the disk still manages to hand back garbage,
// the CRC rejects it and recovery falls back a generation.
const (
	snapshotMagic = uint32(0x4d454353) // "MECS"
	// SnapshotVersion is the framing version stamped into every snapshot
	// file. Bump it when the payload encoding changes incompatibly; files of
	// another version are then refused at read time instead of misdecoded.
	SnapshotVersion = uint32(2)
	snapshotHeader  = 4 + 4 + 8 + 4

	// maxPayload caps what a corrupt length field can make the reader
	// allocate (cell payloads are a few KB to a few MB).
	maxPayload = 1 << 28
)

// errVersionSkew marks an intact snapshot framed by another SnapshotVersion:
// a file this build cannot decode, not a corrupt one.
var errVersionSkew = errors.New("persist: snapshot version skew")

// encodeSnapshot frames a payload into snapshot file bytes.
func encodeSnapshot(payload []byte) []byte {
	out := make([]byte, 0, snapshotHeader+len(payload))
	out = binary.LittleEndian.AppendUint32(out, snapshotMagic)
	out = binary.LittleEndian.AppendUint32(out, SnapshotVersion)
	out = binary.LittleEndian.AppendUint64(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	out = append(out, payload...)
	return out
}

// parseSnapshot validates snapshot file bytes and returns the payload
// (aliasing data). Any truncation, version skew, length mismatch, or CRC
// failure is an error — a parsed payload is exactly what was written. Version
// skew wraps errVersionSkew.
func parseSnapshot(data []byte) ([]byte, error) {
	if len(data) < snapshotHeader {
		return nil, fmt.Errorf("persist: snapshot truncated: %d bytes < %d-byte header", len(data), snapshotHeader)
	}
	if m := binary.LittleEndian.Uint32(data[0:4]); m != snapshotMagic {
		return nil, fmt.Errorf("persist: bad snapshot magic %#x", m)
	}
	if v := binary.LittleEndian.Uint32(data[4:8]); v != SnapshotVersion {
		return nil, fmt.Errorf("%w: file has version %d, this build reads version %d", errVersionSkew, v, SnapshotVersion)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	if n > maxPayload {
		return nil, fmt.Errorf("persist: implausible snapshot payload length %d", n)
	}
	if uint64(len(data)-snapshotHeader) != n {
		return nil, fmt.Errorf("persist: snapshot payload length %d, header says %d", len(data)-snapshotHeader, n)
	}
	payload := data[snapshotHeader:]
	if c := crc32.ChecksumIEEE(payload); c != binary.LittleEndian.Uint32(data[16:20]) {
		return nil, fmt.Errorf("persist: snapshot payload CRC mismatch")
	}
	return payload, nil
}

// readSnapshotFile loads and validates one snapshot file.
func readSnapshotFile(path string) ([]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSnapshot(data)
}

// writeSnapshotFile atomically writes a framed snapshot to dir/name.
func writeSnapshotFile(dir, name string, payload []byte) error {
	tmp, err := os.CreateTemp(dir, name+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(encodeSnapshot(payload)); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot temp: %w", err)
	}
	if err := os.Rename(tmpName, filepath.Join(dir, name)); err != nil {
		return fmt.Errorf("persist: publishing snapshot: %w", err)
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory so a just-renamed entry survives power loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	// Some filesystems refuse fsync on directories; rename durability is
	// then best-effort, which still preserves crash-consistency (the old
	// generation remains valid).
	_ = d.Sync()
	return nil
}
