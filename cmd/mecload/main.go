// Command mecload is an open-loop load generator for the mecd decision
// server. Unlike a closed-loop driver (mecd -drive), it fixes the request
// schedule up front — Poisson or constant-rate arrivals per connection —
// and measures every request against its *intended* send time, so a
// stalled or saturated server shows up as tail latency instead of silently
// throttling the generator (the coordinated-omission trap).
//
// Latency is recorded into mergeable HDR histograms (internal/obs), split
// per route (decide/observe) and per cell; per-connection recorders merge
// exactly at report time. 429 responses are accounted as rejected (with
// optional Retry-After honouring), completed requests over -late-ms as
// late.
//
// Usage:
//
//	mecload -addr http://localhost:8370 -rate 500 -duration 30s
//
// Output: a human-readable report (stderr with -bench, stdout otherwise),
// optional -json file, and with -bench go-test benchmark lines on stdout
// for cmd/benchjson.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		if err == flag.ErrHelp {
			return
		}
		fmt.Fprintln(os.Stderr, "mecload:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mecload", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", "http://localhost:8370", "mecd base URL")
		conns    = fs.Int("conns", 4, "concurrent connections (each owns a disjoint cell slice)")
		rate     = fs.Float64("rate", 100, "total offered decision rate per second")
		dist     = fs.String("dist", "poisson", "inter-arrival law: poisson or const")
		warmup   = fs.Duration("warmup", time.Second, "unrecorded warmup phase")
		duration = fs.Duration("duration", 10*time.Second, "measured phase length")
		cells    = fs.Int("cells", 0, "cells to target (0 = discover via /v1/cells)")
		observe  = fs.Bool("observe", false, "follow each decide with an explicit observe")
		honorRA  = fs.Bool("honor-retry-after", false, "pause a connection for the jittered Retry-After hint on 429")
		lateMS   = fs.Float64("late-ms", 50, "completed requests above this latency count as late (0 disables)")
		seed     = fs.Int64("seed", 1, "schedule RNG seed (conn i uses seed+i)")
		jsonOut  = fs.String("json", "", "write the full report as JSON to this file")
		bench    = fs.Bool("bench", false, "emit go-test benchmark lines on stdout (report moves to stderr)")
	)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// SIGINT cancels the schedule; recorders flush and the report still
	// covers everything measured so far.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	report := stdout
	if *bench {
		report = stderr
	}
	cfg := loadConfig{
		Target:          *addr,
		Conns:           *conns,
		Rate:            *rate,
		Dist:            *dist,
		Warmup:          *warmup,
		Duration:        *duration,
		Cells:           *cells,
		Observe:         *observe,
		HonorRetryAfter: *honorRA,
		LateMS:          *lateMS,
		Seed:            *seed,
	}

	rep, err := runLoad(ctx, cfg)
	if err != nil {
		return err
	}
	rep.writeText(report)
	if *jsonOut != "" {
		if err := writeJSONFile(*jsonOut, rep); err != nil {
			return err
		}
	}
	if *bench {
		rep.writeBench(stdout)
	}
	return nil
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
