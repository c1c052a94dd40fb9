package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"closedrules/internal/bench"
)

// TestRunSmoke runs the whole harness end to end at tiny scale — mine,
// serve on a loopback socket, drive both endpoints, emit the report —
// and checks the emitted file parses, validates and carries measured
// numbers. This is the same shape the CI smoke step runs.
func TestRunSmoke(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serving.json")
	var buf bytes.Buffer
	err := run([]string{
		"-scale", "small",
		"-c", "4",
		"-duration", "300ms",
		"-warmup", "50ms",
		"-endpoints", "recommend,support",
		"-baskets", "8",
		"-label", "smoke",
		"-out", out,
	}, &buf)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, buf.String())
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.ReadServingReport(f)
	if err != nil {
		t.Fatalf("emitted report does not validate: %v", err)
	}
	if len(rep.Runs) != 1 || rep.Runs[0].Label != "smoke" {
		t.Fatalf("unexpected report runs: %+v", rep.Runs)
	}
	if got := len(rep.Runs[0].Results); got != 2 {
		t.Fatalf("got %d cells, want 2 (recommend + support)", got)
	}
	for _, cell := range rep.Runs[0].Results {
		if cell.Failed != 0 {
			t.Errorf("cell %s has %d failed requests", cell.Endpoint, cell.Failed)
		}
		if cell.OK == 0 {
			t.Errorf("cell %s measured no successful requests", cell.Endpoint)
		}
	}
	if !strings.Contains(buf.String(), "wrote "+out) {
		t.Errorf("missing summary line in output:\n%s", buf.String())
	}
}

// TestRunAppendAndKnobs appends an admission-gated run to an existing
// report and checks both runs survive with their knobs recorded.
func TestRunAppendAndKnobs(t *testing.T) {
	out := filepath.Join(t.TempDir(), "serving.json")
	base := []string{
		"-scale", "small", "-c", "2", "-duration", "200ms", "-warmup", "20ms",
		"-endpoints", "recommend", "-baskets", "4", "-out", out,
	}
	if err := run(append(base, "-label", "off"), new(bytes.Buffer)); err != nil {
		t.Fatalf("first run: %v", err)
	}
	withKnobs := append(base, "-label", "on", "-append", "-max-inflight", "4")
	if err := run(withKnobs, new(bytes.Buffer)); err != nil {
		t.Fatalf("append run: %v", err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rep, err := bench.ReadServingReport(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs after append, want 2", len(rep.Runs))
	}
	if rep.Runs[0].Label != "off" || rep.Runs[0].MaxInFlight != 0 {
		t.Errorf("baseline run mangled: %+v", rep.Runs[0])
	}
	on := rep.Runs[1]
	if on.Label != "on" || on.MaxInFlight != 4 {
		t.Errorf("knob run mangled: %+v", on)
	}
}

func TestParseFlagsRejectsBadInput(t *testing.T) {
	for _, args := range [][]string{
		{"-c", "0"},
		{"-duration", "0s"},
		{"-baskets", "0"},
		{"-scale", "galactic"},
		{"-endpoints", "metrics"},
		{"-endpoints", ""},
	} {
		if cfg, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted bad input: %+v", args, cfg)
		}
	}
}
