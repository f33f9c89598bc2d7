package main

import (
	"bytes"
	"io"
	"os"
	"testing"
)

// TestStdoutGolden runs the example end to end and compares what it
// prints with testdata/stdout.golden. The program is deterministic, so a
// difference means the library answered it differently.
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stdout.golden")
	if err != nil {
		t.Fatal(err)
	}
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r) // a failed read shows up as a mismatch below
		out <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	if got := <-out; !bytes.Equal(got, want) {
		t.Fatalf("stdout differs from testdata/stdout.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
