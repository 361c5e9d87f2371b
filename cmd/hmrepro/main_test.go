package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunSingleExperiment(t *testing.T) {
	// E3 is one of the fastest drivers.
	if err := run([]string{"-run", "E3"}, io.Discard); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-run", "E999"}, io.Discard); err == nil {
		t.Fatal("unknown experiment id should fail")
	}
}

// TestReproductionGolden pins the full report of every experiment, byte
// for byte: a drift in any measured number or verdict of the paper
// reproduction fails here. Regenerate testdata/hmrepro.golden with
// `go run ./cmd/hmrepro > cmd/hmrepro/testdata/hmrepro.golden` only for an
// intended change of the reproduction.
func TestReproductionGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/hmrepro.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	err = run(nil, &got)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("hmrepro output drifted from golden:\n--- got ---\n%s--- want ---\n%s", got.Bytes(), want)
	}
	if err != nil {
		t.Fatal(err)
	}
}
