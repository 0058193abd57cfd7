package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func fptr(v float64) *float64 { return &v }

func TestDiff(t *testing.T) {
	oldRep := &report{PR: 6, Benchmarks: []benchmark{
		{Name: "SolveLP", NsPerOp: 1000, AllocsPerOp: fptr(100)},
		{Name: "Daemon", NsPerOp: 500, Metrics: map[string]float64{"decisions_per_s": 650, "cells": 64}},
		{Name: "Gone", NsPerOp: 10},
		{Name: "Tiny", NsPerOp: 100, AllocsPerOp: fptr(1)},
	}}
	newRep := &report{PR: 7, Benchmarks: []benchmark{
		// ns/op +30% and allocs/op +50%: two regressions.
		{Name: "SolveLP", NsPerOp: 1300, AllocsPerOp: fptr(150)},
		// Throughput down 20%: a regression despite ns/op improving.
		{Name: "Daemon", NsPerOp: 400, Metrics: map[string]float64{"decisions_per_s": 520, "cells": 32}},
		// allocs/op 1 -> 1.5 is +50% but < 1 alloc absolute: waived as jitter.
		{Name: "Tiny", NsPerOp: 100, AllocsPerOp: fptr(1.5)},
		{Name: "Fresh", NsPerOp: 1}, // new benchmark: not compared
	}}
	regs, imps, missing := diff(oldRep, newRep, 0.10)
	want := map[string]bool{
		"SolveLP|ns/op": true, "SolveLP|allocs/op": true, "Daemon|decisions_per_s": true,
	}
	if len(regs) != len(want) {
		t.Fatalf("regressions = %v, want %v", regs, want)
	}
	for _, f := range regs {
		if !want[f.Bench+"|"+f.Metric] {
			t.Errorf("unexpected regression %v", f)
		}
	}
	// "cells" is not a throughput unit, so halving it is not a regression;
	// Daemon's ns/op drop is an improvement.
	if len(imps) != 1 || imps[0].Bench != "Daemon" || imps[0].Metric != "ns/op" {
		t.Errorf("improvements = %v, want Daemon ns/op only", imps)
	}
	if len(missing) != 1 || missing[0] != "Gone" {
		t.Errorf("missing = %v, want [Gone]", missing)
	}
}

func TestDiffSignAdjustment(t *testing.T) {
	oldRep := &report{Benchmarks: []benchmark{
		{Name: "D", NsPerOp: 100, Metrics: map[string]float64{"decisions_per_s": 100}},
	}}
	newRep := &report{Benchmarks: []benchmark{
		{Name: "D", NsPerOp: 100, Metrics: map[string]float64{"decisions_per_s": 150}},
	}}
	regs, imps, _ := diff(oldRep, newRep, 0.10)
	if len(regs) != 0 {
		t.Errorf("throughput up flagged as regression: %v", regs)
	}
	if len(imps) != 1 || imps[0].Delta >= 0 {
		t.Fatalf("throughput up should be an improvement with negative delta, got %v", imps)
	}
	if got, want := imps[0].String(), "D decisions_per_s: 100 -> 150 (+50.0%)"; got != want {
		t.Errorf("throughput rise printed %q, want %q", got, want)
	}
}

func writeReport(t *testing.T, dir, name string, r *report) string {
	t.Helper()
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestRunExitAndAnnotations(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", &report{PR: 6, Benchmarks: []benchmark{{Name: "X", NsPerOp: 100}}})
	newPath := writeReport(t, dir, "new.json", &report{PR: 7, Benchmarks: []benchmark{{Name: "X", NsPerOp: 200}}})
	samePath := writeReport(t, dir, "same.json", &report{PR: 7, Benchmarks: []benchmark{{Name: "X", NsPerOp: 104}}})

	var buf bytes.Buffer
	exit, err := run(&buf, []string{"-github", oldPath, newPath})
	if err != nil || exit != 1 {
		t.Fatalf("regression run: exit=%d err=%v", exit, err)
	}
	if !strings.Contains(buf.String(), "::warning title=bench regression::X ns/op: 100 -> 200 (+100.0%)") {
		t.Errorf("missing GitHub annotation in output:\n%s", buf.String())
	}

	buf.Reset()
	exit, err = run(&buf, []string{oldPath, samePath})
	if err != nil || exit != 0 {
		t.Fatalf("within-threshold run: exit=%d err=%v", exit, err)
	}
	if !strings.Contains(buf.String(), "no regressions") {
		t.Errorf("output = %q", buf.String())
	}

	if exit, _ := run(&buf, []string{oldPath}); exit != 2 {
		t.Errorf("one arg: exit = %d, want usage error 2", exit)
	}
}

// TestSchemaMatch pins benchdiff's JSON schema to a real committed BENCH
// file, so a cmd/benchjson field rename cannot silently decouple the two.
func TestSchemaMatch(t *testing.T) {
	rep, err := load(filepath.Join("..", "..", "BENCH_5.json"))
	if err != nil {
		t.Fatal(err)
	}
	var daemon *benchmark
	for i := range rep.Benchmarks {
		if rep.Benchmarks[i].Name == "DecisionServer64Cells" {
			daemon = &rep.Benchmarks[i]
		}
	}
	if daemon == nil {
		t.Fatal("DecisionServer64Cells not found in BENCH_5.json")
	}
	if daemon.Metrics["decisions_per_s"] <= 0 {
		t.Errorf("decisions_per_s not decoded: %+v", daemon)
	}
	if daemon.NsPerOp <= 0 {
		t.Errorf("ns_per_op not decoded: %+v", daemon)
	}
}
