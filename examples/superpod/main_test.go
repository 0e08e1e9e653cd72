package main

import (
	"flag"
	"io"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/stdout.golden from the running example")

// TestStdout runs the example and holds what it prints to
// testdata/stdout.golden byte for byte.
func TestStdout(t *testing.T) {
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	printed := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		printed <- b
	}()
	stdout := os.Stdout
	os.Stdout = w
	main()
	os.Stdout = stdout
	w.Close()
	got := <-printed

	path := filepath.Join("testdata", "stdout.golden")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (record it with -update-golden)", err)
	}
	if string(got) != string(want) {
		t.Errorf("stdout moved from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}
