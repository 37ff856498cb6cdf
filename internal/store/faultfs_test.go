package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// FaultFS stands behind openWAL in tests (exported for the external
// test package in this directory, which drives the API layer over it).
// It counts the WAL's write(2)s and fsyncs across every file it opens,
// fails one of them on demand, lets a test run code inside an fsync,
// and remembers what a power cut would leave of each file: the bytes
// written before the last successful Sync began. Killing a process
// keeps the page cache; only this models losing it.
type FaultFS struct {
	// OnSync, if set, runs inside every Sync before it takes effect,
	// with the 1-based number of that Sync.
	OnSync func(n int)

	mu      sync.Mutex
	writes  int
	syncs   int
	failAt  int  // the Write or Sync with this 1-based number fails; 0 = none
	short   bool // a failing Write first writes half of its bytes
	written map[string]int64
	durable map[string]int64
}

// ErrInjected is the failure FaultFS injects.
var ErrInjected = errors.New("faultfs: injected failure")

// OpenFS is Open over a FaultFS.
func OpenFS(dir string, opt Options, fs *FaultFS) (*Store, error) {
	return open(dir, opt, fs.open)
}

// FailAt makes the n-th Write or Sync from now (1-based) fail; a failing
// Write with short set writes half of its bytes first.
func (fs *FaultFS) FailAt(n int, short bool) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.failAt, fs.short = fs.writes+fs.syncs+n, short
}

// Counts returns the Writes and Syncs seen so far.
func (fs *FaultFS) Counts() (writes, syncs int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.writes, fs.syncs
}

func (fs *FaultFS) open(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.written == nil {
		fs.written, fs.durable = map[string]int64{}, map[string]int64{}
	}
	// What a boot finds in the file it has read back: count it durable.
	fs.written[path], fs.durable[path] = st.Size(), st.Size()
	return &faultFile{fs: fs, path: path, f: f}, nil
}

type faultFile struct {
	fs   *FaultFS
	path string
	f    *os.File
}

// failing reports whether the call just counted is the one to fail.
func (fs *FaultFS) failing() bool { return fs.writes+fs.syncs == fs.failAt }

func (f *faultFile) Write(p []byte) (int, error) {
	fs := f.fs
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.writes++
	if fs.failing() {
		n := 0
		if fs.short {
			n, _ = f.f.Write(p[:len(p)/2])
			fs.written[f.path] += int64(n)
		}
		return n, ErrInjected
	}
	n, err := f.f.Write(p)
	fs.written[f.path] += int64(n)
	return n, err
}

func (f *faultFile) Sync() error {
	fs := f.fs
	fs.mu.Lock()
	fs.syncs++
	n, fail, covers := fs.syncs, fs.failing(), fs.written[f.path]
	fs.mu.Unlock()
	if fs.OnSync != nil {
		fs.OnSync(n)
	}
	if fail {
		return ErrInjected
	}
	fs.mu.Lock()
	fs.durable[f.path] = covers
	fs.mu.Unlock()
	return nil
}

func (f *faultFile) Close() error               { return f.f.Close() }
func (f *faultFile) Stat() (os.FileInfo, error) { return f.f.Stat() }

// CrashImage copies dir as a power cut would leave it: every WAL file
// cut back to its durable length plus torn bytes of whatever was
// written after it (fewer than a frame header, so never a whole frame).
func (fs *FaultFS) CrashImage(t testing.TB, dir string, torn int64) string {
	t.Helper()
	if torn >= walFrameHeader {
		t.Fatalf("CrashImage: torn=%d would keep a whole frame header", torn)
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	dst := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		src := filepath.Join(dir, e.Name())
		in, err := os.Open(src)
		if err != nil {
			t.Fatal(err)
		}
		var r io.Reader = in
		if keep, ok := fs.durable[src]; ok {
			r = io.LimitReader(in, min(keep+torn, fs.written[src]))
		}
		b, err := io.ReadAll(r)
		in.Close()
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}
