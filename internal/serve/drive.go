package serve

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// DriveConfig parameterises Server.Drive, the programmatic closed-loop load
// path shared by `mecd -drive` and the benchmark harness.
type DriveConfig struct {
	// Slots is how many Decide slots to play per cell. Must be > 0.
	Slots int
	// MaxRetryWait caps one backpressure backoff sleep. Default 1s (the
	// programmatic twin of the HTTP Retry-After clamp, but sub-second:
	// an in-process caller can retry far sooner than an HTTP client).
	MaxRetryWait time.Duration
	// Seed seeds the backoff jitter. Jitter decorrelates the per-cell retry
	// storms that a fixed backoff would synchronise (every rejected goroutine
	// sleeping the same hint retries in the same instant and collides again).
	Seed int64
}

// DriveSummary is the outcome of one Drive run.
type DriveSummary struct {
	Cells     int `json:"cells"`
	Slots     int `json:"slots"`
	Decisions int `json:"decisions"`
	// Retries counts backpressure rejections that were retried after a
	// Retry-After-grounded jittered sleep (each rejected attempt is one
	// retry; the decision still completed).
	Retries int64         `json:"retries"`
	Elapsed time.Duration `json:"elapsed"`
	// DecisionsPerS is the realised closed-loop throughput.
	DecisionsPerS float64 `json:"decisions_per_s"`
}

// RetryAfterHint is the programmatic twin of the HTTP 429 Retry-After
// header, at full resolution: the duration recently enqueued work on cell
// id's shard waited before service (the queue-wait EWMA), clamped to
// [1ms, max]. Before any wait has been observed it returns the 1ms floor. Callers backing off
// ErrQueueFull should sleep about this long, jittered.
func (s *Server) RetryAfterHint(id int, max time.Duration) time.Duration {
	const floor = time.Millisecond
	if max <= 0 {
		max = time.Second
	}
	if id < 0 || id >= len(s.cells) {
		return floor
	}
	d := time.Duration(s.shards[s.cells[id].shard].waitEWMA.Load())
	if d < floor {
		return floor
	}
	if d > max {
		return max
	}
	return d
}

// Drive closed-loops every cell for cfg.Slots decisions through the shard
// pool — the daemon's own load generator, used for throughput measurement
// and smoke-testing without an HTTP client. One goroutine per cell issues
// Decide calls back to back; a backpressure rejection (ErrQueueFull) is
// retried after a jittered sleep grounded in the rejecting shard's observed
// drain (RetryAfterHint), mirroring how a well-behaved HTTP client honours
// 429 + Retry-After, and counted in the summary. Any other error aborts.
func (s *Server) Drive(cfg DriveConfig) (DriveSummary, error) {
	if cfg.Slots <= 0 {
		return DriveSummary{}, fmt.Errorf("serve: Drive slots %d: want > 0", cfg.Slots)
	}
	if cfg.MaxRetryWait <= 0 {
		cfg.MaxRetryWait = time.Second
	}
	var retries atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	errc := make(chan error, len(s.cells))
	for c := range s.cells {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			// Per-goroutine RNG: jitter must not serialise the cells on a
			// shared lock.
			rng := rand.New(rand.NewSource(cfg.Seed + int64(c)))
			for t := 0; t < cfg.Slots; t++ {
				for {
					_, err := s.Decide(c, nil)
					if err == nil {
						break
					}
					if errors.Is(err, ErrQueueFull) {
						retries.Add(1)
						hint := s.RetryAfterHint(c, cfg.MaxRetryWait)
						// Uniform jitter over [0.5, 1.5)·hint.
						time.Sleep(hint/2 + time.Duration(rng.Int63n(int64(hint))))
						continue
					}
					errc <- fmt.Errorf("cell %d slot %d: %w", c, t, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		return DriveSummary{}, err
	}
	sum := DriveSummary{
		Cells:     len(s.cells),
		Slots:     cfg.Slots,
		Decisions: len(s.cells) * cfg.Slots,
		Retries:   retries.Load(),
		Elapsed:   time.Since(start),
	}
	if secs := sum.Elapsed.Seconds(); secs > 0 {
		sum.DecisionsPerS = float64(sum.Decisions) / secs
	}
	return sum, nil
}
