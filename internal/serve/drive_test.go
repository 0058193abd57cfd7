package serve

import (
	"testing"
	"time"
)

func TestDriveCompletesAllSlots(t *testing.T) {
	cells := newCellPool(t, 4, 500)
	s, err := New(Config{Shards: 2}, cells)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Drive(DriveConfig{Slots: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Cells != 4 || sum.Slots != 5 || sum.Decisions != 20 {
		t.Fatalf("summary = %+v, want 4 cells x 5 slots = 20 decisions", sum)
	}
	if sum.DecisionsPerS <= 0 {
		t.Fatalf("decisions/s = %g, want > 0", sum.DecisionsPerS)
	}
	// Decide-only driving leaves the final slot pending its auto-observe, so
	// the observed-slot counter reads Slots-1.
	for _, info := range s.Cells() {
		if info.Slot < 4 {
			t.Errorf("cell %d at slot %d, want >= 4", info.Cell, info.Slot)
		}
	}
	shutdownNow(t, s)
}

// TestDriveRetriesUnderBackpressure forces queue-full rejections (a
// single-slot queue shared by every cell on one shard) and checks that Drive
// still completes every decision, counting the backoff retries instead of
// failing or spinning unthrottled.
func TestDriveRetriesUnderBackpressure(t *testing.T) {
	cells := newCellPool(t, 8, 700)
	s, err := New(Config{Shards: 1, QueueDepth: 1, BatchMax: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := s.Drive(DriveConfig{Slots: 4, Seed: 2, MaxRetryWait: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Decisions != 32 {
		t.Fatalf("decisions = %d, want 32", sum.Decisions)
	}
	if sum.Retries == 0 {
		t.Fatal("8 goroutines against a 1-deep queue produced no retries")
	}
	shutdownNow(t, s)
}

func TestDriveRejectsBadSlots(t *testing.T) {
	cells := newCellPool(t, 1, 900)
	s, err := New(Config{}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	if _, err := s.Drive(DriveConfig{Slots: 0}); err == nil {
		t.Fatal("Slots 0 accepted")
	}
}

func TestRetryAfterHintBounds(t *testing.T) {
	cells := newCellPool(t, 2, 1100)
	s, err := New(Config{Shards: 1}, cells)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdownNow(t, s)
	// No waits observed yet: floor applies; bad ids get the floor too.
	if got := s.RetryAfterHint(0, time.Second); got != time.Millisecond {
		t.Fatalf("hint before any wait = %v, want 1ms floor", got)
	}
	if got := s.RetryAfterHint(-1, time.Second); got != time.Millisecond {
		t.Fatalf("hint for bad cell = %v, want 1ms floor", got)
	}
	// A huge observed EWMA clamps to max.
	s.shards[0].waitEWMA.Store(int64(time.Minute))
	if got := s.RetryAfterHint(0, 50*time.Millisecond); got != 50*time.Millisecond {
		t.Fatalf("hint = %v, want clamped 50ms", got)
	}
}
