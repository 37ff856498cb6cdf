package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func openFST(t *testing.T, dir string, fs *FaultFS) *Store {
	t.Helper()
	s, err := OpenFS(dir, Options{CompactBytes: -1}, fs)
	if err != nil {
		t.Fatalf("OpenFS(%s): %v", dir, err)
	}
	return s
}

// runsAfterPowerCut counts the runs a store reopened on what a power cut
// leaves of dir holds.
func runsAfterPowerCut(t *testing.T, fs *FaultFS, dir string) int {
	t.Helper()
	re := openT(t, fs.CrashImage(t, dir, 0), Options{CompactBytes: -1})
	defer re.Close()
	return len(re.Runs())
}

// TestGroupCommit: appends written while an fsync is in flight share the
// next one. The leader's Sync is held until the other N-1 appends have
// written, so exactly two Syncs serve N appends — and every record is
// there, in write order, after a power cut.
func TestGroupCommit(t *testing.T) {
	const n = 8
	fs := &FaultFS{}
	inSync, release := make(chan struct{}), make(chan struct{})
	fs.OnSync = func(k int) {
		if k == 1 {
			close(inSync)
			<-release
		}
	}
	dir := t.TempDir()
	s := openFST(t, dir, fs)
	defer s.Close()

	var wg sync.WaitGroup
	appendAsync := func(i int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Append(submitRec(uint64(i), "", false)); err != nil {
				t.Errorf("Append %d: %v", i, err)
			}
		}()
	}
	appendAsync(1)
	<-inSync
	for i := 2; i <= n; i++ {
		appendAsync(i)
	}
	// Writers take the store mutex only, never the fsync in flight.
	for w, _ := fs.Counts(); w < n; w, _ = fs.Counts() {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if w, syncs := fs.Counts(); w != n || syncs != 2 {
		t.Fatalf("%d appends took %d writes and %d syncs, want %d and 2 (the leader's, then one for everyone behind it)", n, w, syncs, n)
	}
	want := s.Dump()
	re := openT(t, fs.CrashImage(t, dir, 0), Options{CompactBytes: -1})
	defer re.Close()
	if got := re.Dump(); !bytes.Equal(want, got) {
		t.Fatalf("after a power cut the store is not the live one (records lost or reordered)\nlive:\n%s\nreopened:\n%s", want, got)
	}
	if len(re.Runs()) != n {
		t.Fatalf("%d of %d records survived", len(re.Runs()), n)
	}
}

// TestSyncCoversOnlyWhatPrecededIt: a frame written while an fsync is
// running is not counted as covered by it — its committer syncs again.
func TestSyncCoversOnlyWhatPrecededIt(t *testing.T) {
	fs := &FaultFS{}
	inSync, release := make(chan struct{}), make(chan struct{})
	fs.OnSync = func(k int) {
		if k == 1 {
			close(inSync)
			<-release
		}
	}
	dir := t.TempDir()
	s := openFST(t, dir, fs)
	defer s.Close()

	first := make(chan error, 1)
	go func() { first <- s.Append(submitRec(1, "", false)) }()
	<-inSync
	late, err := s.Write(submitRec(2, "", false))
	if err != nil {
		t.Fatalf("Write during an fsync: %v", err)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	if n := runsAfterPowerCut(t, fs, dir); n != 1 {
		t.Fatalf("before its own wait the late record is durable (%d runs): the fake covers too much", n)
	}
	if err := s.Wait(late); err != nil {
		t.Fatal(err)
	}
	if _, syncs := fs.Counts(); syncs != 2 {
		t.Fatalf("%d syncs, want 2: the record written during the first fsync was taken as covered by it", syncs)
	}
	if n := runsAfterPowerCut(t, fs, dir); n != 2 {
		t.Fatalf("acknowledged record lost by a power cut (%d runs)", n)
	}
}

// TestCompactWithCommitOutstanding: a commit written to the old WAL and
// not yet awaited is satisfied by the compaction's durable snapshot; its
// Wait neither fails on the closed file nor syncs anything.
func TestCompactWithCommitOutstanding(t *testing.T) {
	fs := &FaultFS{}
	dir := t.TempDir()
	s := openFST(t, dir, fs)
	mustAppend(t, s, submitRec(1, "", false))
	pending, err := s.Write(submitRec(2, "", false))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact with a commit outstanding: %v", err)
	}
	_, before := fs.Counts()
	if err := s.Wait(pending); err != nil {
		t.Fatalf("Wait on the compacted WAL: %v", err)
	}
	if _, after := fs.Counts(); after != before {
		t.Fatalf("Wait synced a retired WAL (%d → %d syncs)", before, after)
	}
	mustAppend(t, s, submitRec(3, "", false))
	want := s.Dump()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openT(t, fs.CrashImage(t, dir, 0), Options{CompactBytes: -1})
	defer re.Close()
	if got := re.Dump(); !bytes.Equal(want, got) {
		t.Fatalf("after compaction + power cut\nwant:\n%s\ngot:\n%s", want, got)
	}
}

// TestCloseSyncsWhatIsWritten: a record written and never awaited is
// durable once Close has returned.
func TestCloseSyncsWhatIsWritten(t *testing.T) {
	fs := &FaultFS{}
	dir := t.TempDir()
	s := openFST(t, dir, fs)
	if _, err := s.Write(submitRec(1, "", false)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := runsAfterPowerCut(t, fs, dir); n != 1 {
		t.Fatalf("record written before Close lost by a power cut (%d runs)", n)
	}
}

// referenceFrames is the WAL frame decoder written straight down over a
// byte slice, kept as the oracle for replayWAL: the payloads of the
// intact prefix and its length in bytes.
func referenceFrames(data []byte) (frames [][]byte, good int) {
	for len(data)-good >= walFrameHeader {
		n := int64(binary.BigEndian.Uint32(data[good:]))
		sum := binary.BigEndian.Uint32(data[good+4:])
		rest := data[good+walFrameHeader:]
		if n > walMaxRecord || n > int64(len(rest)) || crc32.ChecksumIEEE(rest[:n]) != sum {
			break
		}
		frames = append(frames, rest[:n])
		good += walFrameHeader + int(n)
	}
	return frames, good
}

// FuzzWALReplay: whatever bytes a WAL file holds, replay does not panic
// or fail, delivers exactly the frames the reference decoder accepts,
// cuts the file back to the end of the last of them, and a second replay
// delivers the same frames and cuts nothing.
func FuzzWALReplay(f *testing.F) {
	batch := appendFrame(appendFrame(nil, []byte(`{"op":"submit","run":{"id":"r000001","seq":1,"state":"queued","seed":7}}`)),
		[]byte(`{"op":"evict","id":"r000000"}`))
	for cut := 0; cut <= len(batch); cut++ {
		f.Add(batch[:cut]) // torn at every byte, headers included
	}
	tooLong := binary.BigEndian.AppendUint32(nil, walMaxRecord+1)
	f.Add(append(tooLong, batch...))
	flipped := bytes.Clone(batch)
	flipped[4] ^= 1 // CRC of the first frame off by one bit
	f.Add(flipped)
	flipped = bytes.Clone(batch)
	flipped[len(flipped)-1] ^= 1 // second frame's payload off by one bit
	f.Add(flipped)
	f.Add(appendFrame(bytes.Clone(batch), nil)) // an empty record is a frame

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		want, good := referenceFrames(data)
		for pass := 1; pass <= 2; pass++ {
			var got [][]byte
			if err := replayWAL(path, func(p []byte) error {
				got = append(got, bytes.Clone(p))
				return nil
			}); err != nil {
				t.Fatalf("pass %d: replay: %v", pass, err)
			}
			if len(got) != len(want) {
				t.Fatalf("pass %d: %d frames delivered, reference accepts %d", pass, len(got), len(want))
			}
			for i := range got {
				if !bytes.Equal(got[i], want[i]) {
					t.Fatalf("pass %d: frame %d = %q, reference %q", pass, i, got[i], want[i])
				}
			}
			left, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(left, data[:good]) {
				t.Fatalf("pass %d: file holds %d bytes, want the %d of the intact prefix", pass, len(left), good)
			}
		}
	})
}

// TestReplayTornLengthWord: a torn length word that decodes to tens of
// megabytes is recognised from the file's size, not by allocating and
// reading that much.
func TestReplayTornLengthWord(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	frame := appendFrame(nil, []byte("x"))
	torn := binary.BigEndian.AppendUint32(bytes.Clone(frame), walMaxRecord-1)
	torn = append(torn, 0, 0, 0, 0, 1, 2, 3)
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := replayWAL(path, func([]byte) error { return nil }); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Fatalf("replay of a torn %d MiB length word allocated %d bytes", walMaxRecord>>20, grew)
	}
	if st, err := os.Stat(path); err != nil || st.Size() != int64(len(frame)) {
		t.Fatalf("file after replay: %v, %v; want the %d bytes of the one intact frame", st, err, len(frame))
	}
}
