package proof

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// CreateAtomic starts a proof stream that becomes visible at path only on a
// successful Close: records are written to a hidden temporary file in the
// same directory and renamed into place after the final flush. A crashed or
// killed writer leaves at most a hidden ".tmp-" orphan, never a half-written
// certificate at path — so a concurrent or later proofcheck can trust that
// every file it finds at a published name is complete. The temporary is
// made by Stage, so the published certificate has an os.Create file's mode.
// A sticky write error removes the temporary and surfaces from Close;
// nothing appears at path.
//
// Path reports the publication path throughout the writer's lifetime, even
// though the file only exists there after Close.
func CreateAtomic(path string) (*Writer, error) {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := Stage(dir, "."+base+".tmp-", "")
	if err != nil {
		return nil, fmt.Errorf("proof: %w", err)
	}
	pw := NewWriter(f)
	pw.f = f
	pw.path = path
	pw.tmp = f.Name()
	return pw, nil
}

// finalize publishes or discards an atomic writer's temporary file after the
// backing file has been flushed and closed; called from Close.
func (w *Writer) finalize() {
	if w.tmp == "" {
		return
	}
	tmp := w.tmp
	w.tmp = ""
	if w.err != nil {
		os.Remove(tmp)
		return
	}
	if err := os.Rename(tmp, w.path); err != nil {
		w.err = fmt.Errorf("proof: publish certificate: %w", err)
		os.Remove(tmp)
	}
}

// Stage creates an empty staging file in dir for a certificate that is
// renamed into place once complete, named by UniqueName(prefix, suffix). It
// is created exclusively with the mode os.Create gives (0666 less the
// umask), so a published certificate is as readable as any other file the
// process writes there, by a checker running under another account too. A
// name an earlier process with the same pid left behind is skipped, never
// reused.
func Stage(dir, prefix, suffix string) (*os.File, error) {
	for tries := 1; ; tries++ {
		name := filepath.Join(dir, UniqueName(prefix, suffix))
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) && tries < 100 {
			continue
		}
		return f, err
	}
}

// uniqueSeq and uniqueToken back UniqueName: a process-wide counter and 48
// random bits drawn once per process.
var (
	uniqueSeq   atomic.Uint64
	uniqueToken = newUniqueToken()
)

func newUniqueToken() (b [6]byte) {
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("proof: draw a certificate name token: %v", err))
	}
	return b
}

// UniqueName returns prefix-<pid>-<token>-<seq>suffix, a certificate file
// name unique across this process's goroutines (the sequence), across
// processes sharing a directory (the pid) and across restarts that reuse a
// pid, as pid 1 in a container does (the token), so a publish never
// replaces an earlier process's certificate.
func UniqueName(prefix, suffix string) string {
	return fmt.Sprintf("%s%d-%x-%d%s", prefix, os.Getpid(), uniqueToken, uniqueSeq.Add(1), suffix)
}
