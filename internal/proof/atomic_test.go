package proof

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"segrid/internal/sat"
)

// TestAtomicPublishOnClose checks the write-temp-then-rename contract: while
// the stream is open nothing exists at the publication path (only a hidden
// temp), and after Close the complete certificate is there and checks clean.
func TestAtomicPublishOnClose(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "req-1.proof")
	w, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	if w.Path() != path {
		t.Fatalf("Path() = %q, want %q", w.Path(), path)
	}
	// A unit clause and its negation: derived empty clause is RUP, giving a
	// minimal valid certificate.
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	w.LogInput([]sat.Lit{sat.NegLit(0)})
	w.EndUnsat(nil)
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("certificate visible at %s before Close (err=%v)", path, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || !strings.HasPrefix(ents[0].Name(), ".req-1.proof.tmp-") {
		t.Fatalf("staging dir contents = %v, want one hidden temp", ents)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatalf("published certificate invalid: %v", err)
	}
	if rep.UnsatChecks != 1 {
		t.Fatalf("UnsatChecks = %d, want 1", rep.UnsatChecks)
	}
	ents, _ = os.ReadDir(dir)
	if len(ents) != 1 || ents[0].Name() != "req-1.proof" {
		t.Fatalf("dir after Close = %v, want only the published certificate", ents)
	}
}

// TestAtomicWriteErrorPublishesNothing checks a poisoned stream neither
// publishes nor leaks its temp: the failure surfaces from Close and the
// directory is left clean.
func TestAtomicWriteErrorPublishesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "req-2.proof")
	w, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	injected := errors.New("injected proof-sink failure")
	w.err = injected
	if err := w.Close(); !errors.Is(err, injected) {
		t.Fatalf("Close error = %v, want the injected failure", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("dir after failed Close = %v, want empty", ents)
	}
}

// TestStagedCertificateMode checks a published certificate, and the same
// certificate trimmed in place, get the mode os.Create gives a file in the
// same directory, not a private temporary's 0600, so a checker running
// under another account can read them.
func TestStagedCertificateMode(t *testing.T) {
	dir := t.TempDir()
	ref, err := os.Create(filepath.Join(dir, "reference"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want := fileMode(t, ref.Name())

	path := filepath.Join(dir, "req-3.proof")
	w, err := CreateAtomic(path)
	if err != nil {
		t.Fatal(err)
	}
	w.LogInput([]sat.Lit{sat.PosLit(0)})
	w.LogInput([]sat.Lit{sat.NegLit(0)})
	w.EndUnsat(nil)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if got := fileMode(t, path); got != want {
		t.Fatalf("published certificate mode %v, want %v", got, want)
	}
	if _, err := TrimFile(path); err != nil {
		t.Fatal(err)
	}
	if got := fileMode(t, path); got != want {
		t.Fatalf("trimmed certificate mode %v, want %v", got, want)
	}
}

// TestStageSkipsTakenName checks Stage never reuses a staging name that is
// already taken (say, by an earlier process with the same pid): it moves on
// to a fresh name and leaves the existing file untouched.
func TestStageSkipsTakenName(t *testing.T) {
	dir := t.TempDir()
	taken := filepath.Join(dir, fmt.Sprintf(".stage-%d-%x-%d", os.Getpid(), uniqueToken, uniqueSeq.Load()+1))
	if err := os.WriteFile(taken, []byte("orphan"), 0o600); err != nil {
		t.Fatal(err)
	}
	f, err := Stage(dir, ".stage-", "")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Name() == taken {
		t.Fatalf("Stage reused the taken name %s", taken)
	}
	if data, err := os.ReadFile(taken); err != nil || string(data) != "orphan" {
		t.Fatalf("taken file now holds %q (err %v), want it untouched", data, err)
	}
}

// fileMode reports path's permission bits.
func fileMode(t *testing.T, path string) os.FileMode {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Mode().Perm()
}

// TestUniqueNameCollisionFree checks process-local uniqueness and shape.
func TestUniqueNameCollisionFree(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 100; i++ {
		n := UniqueName("verify-", ".proof")
		if !strings.HasPrefix(n, "verify-") || !strings.HasSuffix(n, ".proof") {
			t.Fatalf("UniqueName shape wrong: %q", n)
		}
		if seen[n] {
			t.Fatalf("UniqueName repeated %q", n)
		}
		seen[n] = true
	}
}

// TestUniqueNameAcrossRestart simulates a process restarted under the same
// pid: the sequence starts over and the token is drawn again. The names the
// second process issues must differ from the first one's, so its
// certificates can never be published over the earlier ones.
func TestUniqueNameAcrossRestart(t *testing.T) {
	seq, token := uniqueSeq.Load(), uniqueToken
	t.Cleanup(func() { uniqueSeq.Store(seq); uniqueToken = token })
	issue := func() []string {
		uniqueSeq.Store(0)
		uniqueToken = newUniqueToken()
		var names []string
		for i := 0; i < 3; i++ {
			names = append(names, UniqueName("verify-", ".proof"), UniqueName("req", ""))
		}
		return names
	}
	first := make(map[string]bool)
	for _, n := range issue() {
		first[n] = true
	}
	for _, n := range issue() {
		if first[n] {
			t.Fatalf("a restarted process reissued %q", n)
		}
	}
}
