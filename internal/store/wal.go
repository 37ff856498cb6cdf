package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
	"sync"
)

// WAL framing: each record is [length uint32 BE][crc32 uint32 BE][payload].
// The CRC covers the payload only; length is validated by bounds. A torn
// tail — a partial frame from a crash mid-write — is detected by a short
// read or CRC mismatch and truncated away on replay, never fatal: the
// store simply forgets the last unacknowledged append, which is exactly
// the write that was never acknowledged to any client.
const (
	walFrameHeader = 8
	// walMaxRecord bounds a single record; anything larger is treated
	// as corruption (a torn length word can decode to gigabytes).
	walMaxRecord = 64 << 20
)

// walFile is what the writer needs of its file — the seam tests put a
// fault-injecting file behind (*os.File in production).
type walFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
	Stat() (os.FileInfo, error)
}

// walOpener opens a WAL file for appending, creating it if missing.
type walOpener func(path string) (walFile, error)

func openOSFile(path string) (walFile, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// walWriter appends CRC-framed records to an open WAL file in two
// steps: write hands back the file offset after the frames (a commit
// ticket), syncTo makes everything up to a ticket durable. One fsync
// covers every frame written before it started, so concurrent
// committers share it (group commit).
//
// The writer is fail-stop: the first write or sync error is kept and
// returned by every later write and syncTo. A short write leaves a torn
// frame that replay would truncate together with everything after it,
// and after a failed fsync the kernel may already have dropped the
// dirty pages, so a retry could succeed without the data being on disk.
type walWriter struct {
	f      walFile
	noSync bool

	// mu guards size and err: writes are serialised by the Store mutex,
	// syncTo reads both from outside it.
	mu   sync.Mutex
	size int64
	err  error

	// syncMu serialises fsyncs and guards synced, the offset the last
	// successful one covered.
	syncMu sync.Mutex
	synced int64
}

func openWAL(path string, open walOpener, noSync bool) (*walWriter, error) {
	f, err := open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &walWriter{f: f, size: st.Size(), synced: st.Size(), noSync: noSync}, nil
}

// appendFrame frames one payload onto buf.
func appendFrame(buf, payload []byte) []byte {
	buf = slices.Grow(buf, walFrameHeader+len(payload))
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// write appends already framed records with one write(2) and returns
// the offset after them. It does not sync. A crash mid-write leaves a
// torn frame that replay truncates.
func (w *walWriter) write(frames []byte) (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.f.Write(frames)
	if err == nil && n < len(frames) {
		err = io.ErrShortWrite
	}
	if err != nil {
		w.err = fmt.Errorf("store: WAL write failed, log closed to appends: %w", err)
		return 0, w.err
	}
	w.size += int64(len(frames))
	return w.size, nil
}

// written returns the offset after the last frame and the sticky error.
func (w *walWriter) written() (int64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.size, w.err
}

// syncTo returns once every byte before lsn is durable. The offset a
// sync covers is read before the fsync starts: a frame written while it
// runs may have missed it.
func (w *walWriter) syncTo(lsn int64) error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	covers, err := w.written()
	if err != nil {
		return err
	}
	if w.noSync || w.synced >= lsn {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		w.mu.Lock()
		w.err = fmt.Errorf("store: WAL sync failed, log closed to appends: %w", err)
		w.mu.Unlock()
		return w.err
	}
	w.synced = covers
	return nil
}

// close syncs what was written and closes the file.
func (w *walWriter) close() error {
	size, _ := w.written()
	err := w.syncTo(size)
	if cerr := w.retire(); err == nil {
		err = cerr
	}
	return err
}

// retire closes the file and counts every frame as durable, so a
// committer still holding a ticket on this writer returns at once. The
// caller vouches for the frames: close has just synced them, or a
// durable snapshot covers them.
func (w *walWriter) retire() error {
	w.syncMu.Lock()
	defer w.syncMu.Unlock()
	w.synced, _ = w.written()
	return w.f.Close()
}

// replayWAL streams every intact record of a WAL file to fn, in order.
// On the first torn or corrupt frame it truncates the file there and
// stops — records past a corrupt frame cannot be trusted (framing is
// lost). A missing file is an empty WAL.
func replayWAL(path string, fn func(payload []byte) error) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}

	br := bufio.NewReaderSize(f, 1<<20)
	var good int64
	hdr := make([]byte, walFrameHeader)
	for {
		if _, err := io.ReadFull(br, hdr); err != nil {
			break // clean EOF or torn header: truncate at `good`
		}
		n := binary.BigEndian.Uint32(hdr[0:4])
		sum := binary.BigEndian.Uint32(hdr[4:8])
		// The second test keeps a torn length word from allocating up to
		// walMaxRecord for a payload the file cannot hold.
		if n > walMaxRecord || good+walFrameHeader+int64(n) > st.Size() {
			break
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(br, payload); err != nil {
			break
		}
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if err := fn(payload); err != nil {
			return err
		}
		good += walFrameHeader + int64(n)
	}
	if good == st.Size() {
		return nil
	}
	// Torn tail: drop it so the next append starts on a frame boundary.
	return os.Truncate(path, good)
}
