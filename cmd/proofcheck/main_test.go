package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestVersionSkewExitsTwo: a certificate in another format version is
// refused as version skew (exit 2), not as corruption (exit 1), and the
// current golden certificate passes (exit 0).
func TestVersionSkewExitsTwo(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "internal", "proof", "testdata", "golden.proof"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	current := filepath.Join(dir, "current.proof")
	if err := os.WriteFile(current, golden, 0o644); err != nil {
		t.Fatal(err)
	}
	old := filepath.Join(dir, "format1.proof")
	if err := os.WriteFile(old, append([]byte("SGPF1\n"), golden[len("SGPF2\n"):]...), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"-q", current}); code != 0 {
		t.Fatalf("proofcheck on the golden certificate exited %d, want 0", code)
	}
	if code := run([]string{"-q", old}); code != 2 {
		t.Fatalf("proofcheck on a format-1 stream exited %d, want 2 (version skew)", code)
	}
}
