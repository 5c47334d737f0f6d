package proof

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// TestGoldenCertificate pins the on-disk format: testdata/golden.proof is a
// trimmed certificate from a real solver run (ieee14, any-state attacker,
// budgets 2 measurements / 1 bus — unsat) checked in so that format or
// checker changes that would orphan previously written certificates fail
// loudly instead of silently. Regenerate it only on a deliberate format bump:
//
//	go run ./cmd/ufdiverify -proof internal/proof/testdata/golden.proof -trim-proof \
//	    <(printf '{"case":"ieee14","anyState":true,"maxMeasurements":2,"maxBuses":1}')
//
// CI additionally runs cmd/proofcheck over the same file.
func TestGoldenCertificate(t *testing.T) {
	rep, err := CheckFile(filepath.Join("testdata", "golden.proof"))
	if err != nil {
		t.Fatalf("golden certificate rejected: %v", err)
	}
	want := Report{
		Records:      205,
		Inputs:       57,
		Derived:      23,
		TheoryLemmas: 22,
		UnsatChecks:  1,
		Restarts:     1,
		GateDefs:     41,
		CardDefs:     1,
		DefClauses:   187,
	}
	if *rep != want {
		t.Fatalf("golden report drifted:\n got %+v\nwant %+v", *rep, want)
	}
}

// TestCheckRefusesOtherFormatVersion: a stream whose header names another
// format version is refused as version skew (ErrVersion), never decoded
// under this version's record layout.
func TestCheckRefusesOtherFormatVersion(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden.proof"))
	if err != nil {
		t.Fatal(err)
	}
	old := append([]byte("SGPF1\n"), golden[len(magic):]...)
	if _, err := Check(bytes.NewReader(old)); !errors.Is(err, ErrVersion) {
		t.Fatalf("Check on a format-1 stream = %v, want ErrVersion", err)
	}
}
