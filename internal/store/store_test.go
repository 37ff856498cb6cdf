package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// Dump renders the full store state as canonical JSON — the
// byte-identity oracle for the prefix-replay property tests.
func (s *Store) Dump() []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := snapshot{
		Seq:       s.seq,
		Evicted:   s.evicted,
		CacheHits: s.cacheHits,
		Runs:      make([]*RunRecord, 0, len(s.order)),
	}
	for _, id := range s.order {
		snap.Runs = append(snap.Runs, s.runs[id])
	}
	b, err := json.MarshalIndent(&snap, "", "  ")
	if err != nil {
		panic("store: dump marshal: " + err.Error())
	}
	return b
}

func openT(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	opt.NoSync = true
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s
}

// copyDir simulates kill -9: the on-disk bytes at this instant are all
// a restarted process gets.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

func mustAppend(t *testing.T, s *Store, recs ...Record) {
	t.Helper()
	if err := s.Append(recs...); err != nil {
		t.Fatalf("Append(%+v): %v", recs, err)
	}
}

func submitRec(seq uint64, tenant string, terminal bool) Record {
	id := fmt.Sprintf("r%06d", seq)
	r := &RunRecord{
		ID: id, Seq: seq, Tenant: tenant, State: "queued",
		Spec:    json.RawMessage(fmt.Sprintf(`{"id":"spec-%d","kind":"mrt"}`, seq)),
		Seed:    seq * 17,
		Created: time.Unix(int64(1700000000+seq), 0).UTC(),
	}
	if terminal {
		r.State = "done"
		r.Cached = true
		r.MemoKey = fmt.Sprintf("%016x", seq)
		r.Finished = r.Created
		r.Terminal = json.RawMessage(`{"events":[{"seq":0,"type":"state","state":"done"}]}`)
	}
	return Record{Op: "submit", Run: r}
}

// histOp is one step of a randomized store history: a batch appended
// in one call, or a compaction.
type histOp struct {
	recs    []Record
	compact bool
}

// randomHistory draws a run history the way the API layer writes one:
// submits, running transitions, terminal results, evictions on their
// own, and memo hits — by reference to a done run still in the store
// when there is one, with an inline payload (the format of earlier
// versions) otherwise — half of them batched with the eviction of the
// oldest terminal run, which may be the very run the hit names. With
// compactions set, explicit compactions are interleaved.
func randomHistory(rng *rand.Rand, ops int, compactions bool) []histOp {
	var (
		hist    []histOp
		liveIDs []string // every run still stored, in submission order
		seq     uint64
	)
	terminal := map[string]bool{}
	done := map[string]bool{} // done with a payload: can back a memo hit
	evictOldest := func() (Record, bool) {
		for j, id := range liveIDs {
			if terminal[id] {
				liveIDs = append(liveIDs[:j], liveIDs[j+1:]...)
				delete(terminal, id)
				delete(done, id)
				return Record{Op: "evict", ID: id}, true
			}
		}
		return Record{}, false
	}
	for len(hist) < ops {
		switch k := rng.Intn(11); {
		case k < 3 || len(liveIDs) == 0: // submit
			seq++
			rec := submitRec(seq, []string{"", "alpha", "beta"}[rng.Intn(3)], false)
			hist = append(hist, histOp{recs: []Record{rec}})
			liveIDs = append(liveIDs, rec.Run.ID)
		case k == 3: // memo hit
			seq++
			rec := submitRec(seq, []string{"", "alpha", "beta"}[rng.Intn(3)], true)
			for _, id := range liveIDs {
				if done[id] {
					rec.Run.Source, rec.Run.Terminal = id, nil
					break
				}
			}
			batch := []Record{rec}
			if rng.Intn(2) == 0 {
				if ev, ok := evictOldest(); ok {
					batch = append(batch, ev)
				}
			}
			hist = append(hist, histOp{recs: batch})
			liveIDs = append(liveIDs, rec.Run.ID)
			terminal[rec.Run.ID], done[rec.Run.ID] = true, true
		case k < 6: // state transition on a random live run
			id := liveIDs[rng.Intn(len(liveIDs))]
			if !terminal[id] {
				hist = append(hist, histOp{recs: []Record{{
					Op: "state", ID: id, State: "running",
					Started: time.Unix(int64(1700100000+seq), 0).UTC(),
				}}})
			}
		case k < 8: // terminal result
			id := liveIDs[rng.Intn(len(liveIDs))]
			if !terminal[id] {
				st := []string{"done", "failed", "cancelled"}[rng.Intn(3)]
				hist = append(hist, histOp{recs: []Record{{
					Op: "terminal", ID: id, State: st,
					Error:    map[bool]string{true: "", false: "boom"}[st == "done"],
					Finished: time.Unix(int64(1700200000+seq), 0).UTC(),
					Terminal: json.RawMessage(fmt.Sprintf(`{"cells_done":%d}`, rng.Intn(50))),
				}}})
				terminal[id], done[id] = true, st == "done"
			}
		case k < 10: // evict a terminal run, if any
			if ev, ok := evictOldest(); ok {
				hist = append(hist, histOp{recs: []Record{ev}})
			}
		case compactions:
			hist = append(hist, histOp{compact: true})
		}
	}
	return hist
}

// TestPrefixReplayProperty is the crash-recovery property test. Over a
// randomized run history (submits, state transitions, terminal results,
// memo hits by reference and by copy, evictions alone and batched with
// the submit that forces them, interleaved compactions):
//
//   - the store reopened from a byte-copy of the directory is
//     byte-identical (via the canonical Dump) to the live store at EVERY
//     prefix of the history — kill -9 after any acknowledged append loses
//     nothing;
//   - with a write(2) failing, a write cut short or an fsync failing at
//     EVERY syscall index, what a power cut leaves (only bytes an fsync
//     covered, plus a torn tail) reopens to exactly the replay of the
//     appends that returned nil — each of them present, nothing after
//     the failure — and the writer refuses everything from then on.
func TestPrefixReplayProperty(t *testing.T) {
	for _, compact := range []int64{-1, 1 << 10} { // no auto-compaction / aggressive
		t.Run(fmt.Sprintf("compactBytes=%d", compact), func(t *testing.T) {
			dir := t.TempDir()
			live := openT(t, dir, Options{CompactBytes: compact})
			defer live.Close()

			hist := randomHistory(rand.New(rand.NewSource(7)), 120, false)
			submits, batches, refs := 0, 0, 0
			for i, op := range hist {
				mustAppend(t, live, op.recs...)
				if op.recs[0].Op == "submit" {
					submits++
					if op.recs[0].Run.Source != "" {
						refs++
					}
				}
				if len(op.recs) > 1 {
					batches++
				}

				for _, r := range live.Runs() {
					if r.Cached && len(r.Terminal) == 0 {
						t.Fatalf("op %d: memo hit %s (source %q) holds no payload", i, r.ID, r.Source)
					}
				}
				want := live.Dump()
				re := openT(t, copyDir(t, dir), Options{CompactBytes: compact})
				got := re.Dump()
				re.Close()
				if !bytes.Equal(want, got) {
					t.Fatalf("op %d: reopened store diverges from live store\nlive:\n%s\nreopened:\n%s", i, want, got)
				}
			}
			if submits < 20 || batches < 3 || refs < 3 {
				t.Fatalf("degenerate history: %d submits, %d batches, %d hits by reference", submits, batches, refs)
			}
		})
	}

	t.Run("faults", func(t *testing.T) {
		hist := randomHistory(rand.New(rand.NewSource(11)), 60, true)
		run := func(fs *FaultFS) (dir string, acked []histOp, failed bool) {
			dir = t.TempDir()
			live, err := OpenFS(dir, Options{CompactBytes: -1}, fs)
			if err != nil {
				t.Fatal(err)
			}
			defer live.Close()
			for i, op := range hist {
				if op.compact {
					err = live.Compact()
				} else {
					err = live.Append(op.recs...)
				}
				switch {
				case failed && err == nil:
					t.Fatalf("op %d succeeded on a writer that had failed", i)
				case failed && !errors.Is(err, ErrInjected):
					t.Fatalf("op %d after the failure: %v, want the first failure", i, err)
				case err == nil:
					acked = append(acked, op)
				case errors.Is(err, ErrInjected):
					failed = true
				default:
					t.Fatalf("op %d: %v", i, err)
				}
			}
			return dir, acked, failed
		}

		clean := &FaultFS{}
		if _, acked, failed := run(clean); failed || len(acked) != len(hist) {
			t.Fatalf("fault-free pass: failed=%v, %d of %d ops acknowledged", failed, len(acked), len(hist))
		}
		writes, syncs := clean.Counts()
		if writes < 40 || syncs < 40 {
			t.Fatalf("degenerate history: %d writes, %d syncs", writes, syncs)
		}
		for k := 1; k <= writes+syncs; k++ {
			for _, short := range []bool{false, true} {
				fs := &FaultFS{}
				fs.FailAt(k, short)
				dir, acked, failed := run(fs)
				if !failed {
					t.Fatalf("syscall %d: injected failure never surfaced", k)
				}
				ref := openT(t, t.TempDir(), Options{CompactBytes: -1})
				for _, op := range acked {
					if !op.compact {
						mustAppend(t, ref, op.recs...)
					}
				}
				want := ref.Dump()
				ref.Close()
				for _, torn := range []int64{0, 5} {
					re := openT(t, fs.CrashImage(t, dir, torn), Options{CompactBytes: -1})
					got := re.Dump()
					re.Close()
					if !bytes.Equal(want, got) {
						t.Fatalf("syscall %d (short=%v, torn=%d): after the power cut the store is not the acknowledged prefix (%d ops)\nwant:\n%s\ngot:\n%s",
							k, short, torn, len(acked), want, got)
					}
				}
			}
		}
	})
}

// TestTornTailTruncated: a partial final frame (the write the crash cut
// short) is truncated on replay, never fatal, and the store equals the
// last fully acknowledged state. New appends after recovery land on a
// clean frame boundary.
func TestTornTailTruncated(t *testing.T) {
	for _, torn := range [][]byte{
		{0x00}, // torn length word
		{0x00, 0x00, 0x00, 0x20, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02}, // full header, partial payload
		bytes.Repeat([]byte{0xff}, 12),                               // garbage length (> walMaxRecord)
	} {
		dir := t.TempDir()
		s := openT(t, dir, Options{CompactBytes: -1})
		mustAppend(t, s, submitRec(1, "alpha", false))
		mustAppend(t, s, submitRec(2, "beta", true))
		want := s.Dump()
		s.Close()

		wal := filepath.Join(dir, "wal-00000000.log")
		f, err := os.OpenFile(wal, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(torn); err != nil {
			t.Fatal(err)
		}
		f.Close()

		re := openT(t, dir, Options{CompactBytes: -1})
		if got := re.Dump(); !bytes.Equal(want, got) {
			t.Fatalf("torn tail %x: state diverges\nwant:\n%s\ngot:\n%s", torn, want, got)
		}
		// The torn bytes must be gone: the next append starts a valid frame.
		mustAppend(t, re, submitRec(3, "alpha", false))
		re.Close()
		re2 := openT(t, dir, Options{CompactBytes: -1})
		if re2.Seq() != 3 {
			t.Fatalf("torn tail %x: post-recovery append lost (seq %d, want 3)", torn, re2.Seq())
		}
		re2.Close()
	}
}

// TestCorruptMiddleRecord: a bit flip inside an earlier record cuts
// replay at that record (framing downstream is untrustworthy), keeping
// the intact prefix.
func TestCorruptMiddleRecord(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: -1})
	mustAppend(t, s, submitRec(1, "", false))
	afterFirst := s.Dump()
	mustAppend(t, s, submitRec(2, "", false))
	s.Close()

	wal := filepath.Join(dir, "wal-00000000.log")
	b, err := os.ReadFile(wal)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff // inside the second record's payload
	if err := os.WriteFile(wal, b, 0o644); err != nil {
		t.Fatal(err)
	}

	re := openT(t, dir, Options{CompactBytes: -1})
	defer re.Close()
	if got := re.Dump(); !bytes.Equal(afterFirst, got) {
		t.Fatalf("corrupt record: want first-record prefix\nwant:\n%s\ngot:\n%s", afterFirst, got)
	}
}

// TestCompactionSurvivesRestart: counters (seq, evicted, cache hits)
// and run order persist through compaction + reopen, and stale
// generations are cleaned up.
func TestCompactionSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: -1})
	for i := uint64(1); i <= 5; i++ {
		mustAppend(t, s, submitRec(i, "alpha", i%2 == 0))
	}
	mustAppend(t, s, Record{Op: "evict", ID: "r000002"})
	if err := s.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	mustAppend(t, s, submitRec(6, "beta", false))
	want := s.Dump()
	s.Close()

	re := openT(t, dir, Options{CompactBytes: -1})
	defer re.Close()
	if got := re.Dump(); !bytes.Equal(want, got) {
		t.Fatalf("post-compaction reopen diverges\nwant:\n%s\ngot:\n%s", want, got)
	}
	if re.Seq() != 6 || re.Evicted() != 1 || re.CacheHits() != 2 {
		t.Fatalf("counters: seq=%d evicted=%d cacheHits=%d, want 6/1/2",
			re.Seq(), re.Evicted(), re.CacheHits())
	}
	ents, _ := os.ReadDir(dir)
	if len(ents) != 2 { // snapshot-00000001.json + wal-00000001.log
		var names []string
		for _, e := range ents {
			names = append(names, e.Name())
		}
		t.Fatalf("stale generations not cleaned: %v", names)
	}
}

// TestCorruptSnapshotFallsBack: a half-written newest snapshot (crash
// during compaction, before the WAL switch was acknowledged) falls back
// to the previous generation.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{CompactBytes: -1})
	mustAppend(t, s, submitRec(1, "", false))
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	mustAppend(t, s, submitRec(2, "", false))
	want := s.Dump()
	s.Close()

	// A torn next-generation snapshot appears (rename landed, content bad).
	if err := os.WriteFile(filepath.Join(dir, "snapshot-00000002.json"), []byte(`{"gen":2,`), 0o644); err != nil {
		t.Fatal(err)
	}
	re := openT(t, dir, Options{CompactBytes: -1})
	defer re.Close()
	if got := re.Dump(); !bytes.Equal(want, got) {
		t.Fatalf("corrupt snapshot: fallback diverges\nwant:\n%s\ngot:\n%s", want, got)
	}
}
