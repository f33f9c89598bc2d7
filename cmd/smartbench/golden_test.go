package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite testdata/quick_all.golden from this tree's output")

// TestQuickAllGolden pins the reproduction: `smartbench -quick -exp all`
// — every table and figure of §5 at CI size — is deterministic, so its
// bytes are compared with a recording. A change that moves a cell has
// changed what the paper-era read path computes; regenerate with
// `go test ./cmd/smartbench -run TestQuickAllGolden -update` only when
// that is the point of the change.
func TestQuickAllGolden(t *testing.T) {
	var got bytes.Buffer
	if runExperiments(&got, "all", experiments.Quick()) == 0 {
		t.Fatal("no experiment ran")
	}
	path := filepath.Join("testdata", "quick_all.golden")
	if *update {
		if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := strings.Split(got.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("output differs from %s at line %d:\n got: %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gotLines), path, len(wantLines))
}
