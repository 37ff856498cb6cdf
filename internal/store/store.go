// Package store is the durable, multi-tenant run store behind the /v1
// run API: a stdlib-only append-only WAL (length-prefixed, CRC32-framed
// JSON records) with periodic compacting snapshots, per-tenant API keys
// and token-bucket admission quotas, and content-addressed memoization
// of terminal results.
//
// The store persists run lifecycle facts, not live state: a submit
// record (the full run identity — spec, seed, tenant, memo key), state
// transitions, one terminal record carrying the opaque result payload,
// and evictions. Boot is snapshot + WAL replay through the same apply
// path used for live appends, so a recovered store is byte-identical to
// the live one at the moment of the last acknowledged append — the
// property the prefix-replay tests pin. Runs that were queued or
// running when the process died are the caller's to repair (the API
// layer marks them failed with a restart reason); the store itself
// never invents transitions.
//
// What is durable when. Write frames a batch of records into one
// write(2), folds it into memory and returns a Commit; Wait returns once
// an fsync covers that Commit, and one fsync serves every Commit written
// before it started (group commit); Append is Write then Wait. The API
// layer writes under its own lock, so WAL order is submission order, and
// waits outside it: a submission is durable before its 202, a terminal
// transition before its state, closing event, result or memo entry is
// visible, a cancellation before it is answered. The "running"
// transition is written in order but not awaited — nothing is
// acknowledged on it, and the run's terminal fsync covers it at the
// latest, so a crash in between costs an interrupted run its started
// stamp and nothing else. Evictions travel in the batch of the submit
// that forces them, after it. A memo hit is a submit record that names
// its source run instead of carrying a copy of the payload; apply
// shares the source's Terminal bytes at that point of the log, so a
// later eviction of the source changes nothing and snapshots hold the
// payload inline. The memo key is a 64-bit FNV hash that only nominates
// a source: the API layer serves a hit after comparing the canonical
// spec bytes, seed and job factor. The WAL writer is fail-stop: after
// the first failed write or fsync every Write and Wait returns that
// error until the process restarts.
package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Options tunes a Store.
type Options struct {
	// NoSync skips the per-append fsync (tests; never production).
	NoSync bool
	// CompactBytes triggers a compacting snapshot once the live WAL
	// exceeds this size. 0 means the 8 MiB default; negative disables
	// auto-compaction.
	CompactBytes int64
}

const defaultCompactBytes = 8 << 20

// RunRecord is the durable identity and outcome of one run. Spec and
// Terminal are opaque JSON payloads owned by the API layer; the store
// only guarantees they come back byte-identical.
type RunRecord struct {
	ID     string `json:"id"`
	Seq    uint64 `json:"seq"`
	Tenant string `json:"tenant,omitempty"`
	State  string `json:"state"`
	Error  string `json:"error,omitempty"`
	// Cached marks a run whose terminal result was served from the memo
	// cache at submit time, without executing cells.
	Cached  bool            `json:"cached,omitempty"`
	MemoKey string          `json:"memo_key,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Seed    uint64          `json:"seed"`
	// JobFactor persists the invocation-level scale override so a
	// recovered run's memo identity matches a fresh submission's.
	JobFactor int             `json:"job_factor,omitempty"`
	Created   time.Time       `json:"created"`
	Started   time.Time       `json:"started,omitzero"`
	Finished  time.Time       `json:"finished,omitzero"`
	Terminal  json.RawMessage `json:"terminal,omitempty"`
	// Source names the run a cached submission was served from. A submit
	// record with a Source and no Terminal takes the source's Terminal
	// when it is applied (records written before Source existed carry
	// their own copy).
	Source string `json:"source,omitempty"`
}

func (r *RunRecord) clone() *RunRecord {
	c := *r
	return &c
}

// Record is one WAL entry.
type Record struct {
	// Op is "submit" (Run set), "state" (ID, State, Started), "terminal"
	// (ID, State, Error, Finished, Terminal) or "evict" (ID).
	Op       string          `json:"op"`
	Run      *RunRecord      `json:"run,omitempty"`
	ID       string          `json:"id,omitempty"`
	State    string          `json:"state,omitempty"`
	Error    string          `json:"error,omitempty"`
	Started  time.Time       `json:"started,omitzero"`
	Finished time.Time       `json:"finished,omitzero"`
	Terminal json.RawMessage `json:"terminal,omitempty"`
}

// snapshot is the on-disk compaction format: full store state at a
// generation boundary. Seq and Evicted ride along so run IDs and the
// eviction counter stay monotonic across restarts.
type snapshot struct {
	Gen       int          `json:"gen"`
	Seq       uint64       `json:"seq"`
	Evicted   int          `json:"evicted"`
	CacheHits uint64       `json:"cache_hits"`
	Runs      []*RunRecord `json:"runs"`
}

// Store is the durable run store. Safe for concurrent use.
type Store struct {
	dir      string
	opt      Options
	openFile walOpener

	mu        sync.Mutex
	gen       int
	w         *walWriter
	seq       uint64
	evicted   int
	cacheHits uint64
	order     []string
	runs      map[string]*RunRecord
}

// Open loads (or initialises) the store in dir: it picks the newest
// valid snapshot generation, replays that generation's WAL through the
// live apply path (truncating a torn tail), and deletes stale
// generations.
func Open(dir string, opt Options) (*Store, error) {
	return open(dir, opt, openOSFile)
}

// open is Open with the WAL files opened by openFile.
func open(dir string, opt Options, openFile walOpener) (*Store, error) {
	if opt.CompactBytes == 0 {
		opt.CompactBytes = defaultCompactBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opt: opt, openFile: openFile, runs: make(map[string]*RunRecord)}
	if err := s.load(); err != nil {
		return nil, err
	}
	w, err := openWAL(s.walPath(s.gen), openFile, opt.NoSync)
	if err != nil {
		return nil, err
	}
	s.w = w
	s.removeStaleGenerations()
	return s, nil
}

func (s *Store) snapshotPath(gen int) string {
	return filepath.Join(s.dir, fmt.Sprintf("snapshot-%08d.json", gen))
}

func (s *Store) walPath(gen int) string {
	return filepath.Join(s.dir, fmt.Sprintf("wal-%08d.log", gen))
}

// load restores state from the newest parseable snapshot plus its WAL.
// A corrupt newest snapshot falls back to the previous generation — its
// files are still on disk because deletion happens only after the next
// snapshot is durable.
func (s *Store) load() error {
	gens, err := s.generations()
	if err != nil {
		return err
	}
	s.gen = 0
	for i := len(gens) - 1; i >= 0; i-- {
		snap, err := readSnapshot(s.snapshotPath(gens[i]))
		if err != nil {
			continue // corrupt or half-written snapshot: try older
		}
		s.gen = gens[i]
		s.seq = snap.Seq
		s.evicted = snap.Evicted
		s.cacheHits = snap.CacheHits
		for _, r := range snap.Runs {
			s.runs[r.ID] = r
			s.order = append(s.order, r.ID)
		}
		break
	}
	return replayWAL(s.walPath(s.gen), func(payload []byte) error {
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return fmt.Errorf("store: corrupt WAL record: %v", err)
		}
		s.apply(&rec)
		return nil
	})
}

// generations lists snapshot generation numbers present in dir,
// ascending. Generation 0 (no snapshot file, just wal-00000000.log) is
// implicit and always valid.
func (s *Store) generations() ([]int, error) {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var gens []int
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snapshot-") || !strings.HasSuffix(name, ".json") {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "snapshot-"), ".json"))
		if err != nil {
			continue
		}
		gens = append(gens, n)
	}
	sort.Ints(gens)
	return gens, nil
}

func readSnapshot(path string) (*snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var snap snapshot
	if err := json.Unmarshal(b, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// removeStaleGenerations deletes snapshot/WAL files of every generation
// other than the live one. Best-effort: a leftover file only wastes
// disk, it can never be picked over a newer valid snapshot.
func (s *Store) removeStaleGenerations() {
	gens, err := s.generations()
	if err != nil {
		return
	}
	for _, g := range gens {
		if g == s.gen {
			continue
		}
		os.Remove(s.snapshotPath(g))
		os.Remove(s.walPath(g))
	}
	if s.gen != 0 {
		os.Remove(s.walPath(0))
	}
}

// apply folds one record into in-memory state. It is the single code
// path shared by live appends and boot replay — the reason replay
// reconstructs live state exactly.
func (s *Store) apply(rec *Record) {
	switch rec.Op {
	case "submit":
		r := rec.Run.clone()
		if _, dup := s.runs[r.ID]; dup {
			return // replay safety: duplicate submits are impossible live
		}
		if r.Source != "" && r.Terminal == nil {
			// Resolved here and not at recovery: the source is in the
			// store at this point of the log and may be evicted later.
			if src := s.runs[r.Source]; src != nil {
				r.Terminal = src.Terminal
			}
		}
		s.runs[r.ID] = r
		s.order = append(s.order, r.ID)
		if r.Seq > s.seq {
			s.seq = r.Seq
		}
		if r.Cached {
			s.cacheHits++
		}
	case "state":
		r := s.runs[rec.ID]
		if r == nil {
			return
		}
		r.State = rec.State
		if !rec.Started.IsZero() {
			r.Started = rec.Started
		}
	case "terminal":
		r := s.runs[rec.ID]
		if r == nil {
			return
		}
		r.State = rec.State
		r.Error = rec.Error
		r.Finished = rec.Finished
		r.Terminal = rec.Terminal
	case "evict":
		if _, ok := s.runs[rec.ID]; !ok {
			return
		}
		delete(s.runs, rec.ID)
		for i, id := range s.order {
			if id == rec.ID {
				s.order = append(s.order[:i], s.order[i+1:]...)
				break
			}
		}
		s.evicted++
	}
}

// Commit is a position in the WAL: everything written up to and
// including one Write. The zero Commit is already durable.
type Commit struct {
	w   *walWriter
	lsn int64
}

// Write frames the records into one buffer, appends it with one
// write(2) and folds the records into memory in order. Nothing is
// synced: the records are durable once Wait has returned for the
// Commit. On error nothing was applied and in-memory state is unchanged.
func (s *Store) Write(recs ...Record) (Commit, error) {
	var frames []byte
	for i := range recs {
		payload, err := json.Marshal(&recs[i])
		if err != nil {
			return Commit{}, err
		}
		if len(payload) > walMaxRecord {
			return Commit{}, fmt.Errorf("store: WAL record too large (%d bytes)", len(payload))
		}
		frames = appendFrame(frames, payload)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	lsn, err := s.w.write(frames)
	if err != nil {
		return Commit{}, err
	}
	for i := range recs {
		s.apply(&recs[i])
	}
	return Commit{w: s.w, lsn: lsn}, nil
}

// Wait returns once the Commit is durable. Concurrent waiters share
// fsyncs: whoever finds its Commit not yet covered syncs everything
// written so far. Wait is also where the WAL is compacted once it has
// outgrown Options.CompactBytes — after the Commit is durable, and
// outside whatever lock the caller wrote under.
func (s *Store) Wait(c Commit) error {
	if c.w == nil {
		return nil
	}
	if err := c.w.syncTo(c.lsn); err != nil {
		return err
	}
	if size, _ := c.w.written(); s.opt.CompactBytes <= 0 || size <= s.opt.CompactBytes {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w != c.w {
		return nil // compacted (or closed) by another waiter meanwhile
	}
	return s.compactLocked()
}

// Append is Write then Wait: the records are durable, in order, before
// it returns.
func (s *Store) Append(recs ...Record) error {
	c, err := s.Write(recs...)
	if err != nil {
		return err
	}
	return s.Wait(c)
}

// Compact writes a full snapshot of the next generation (tmp + rename +
// dir fsync), switches appends to a fresh WAL, and deletes the old
// generation. Crash-safe at every step: until the rename lands, boot
// uses the old snapshot + old WAL; after it, the new snapshot alone
// carries the state.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *Store) compactLocked() error {
	// Fail-stop covers compaction too: memory may hold records whose
	// sync failed and whose writers were told so.
	if _, err := s.w.written(); err != nil {
		return err
	}
	next := s.gen + 1
	snap := snapshot{
		Gen:       next,
		Seq:       s.seq,
		Evicted:   s.evicted,
		CacheHits: s.cacheHits,
		Runs:      make([]*RunRecord, 0, len(s.order)),
	}
	for _, id := range s.order {
		snap.Runs = append(snap.Runs, s.runs[id])
	}
	b, err := json.Marshal(&snap)
	if err != nil {
		return err
	}
	tmp := s.snapshotPath(next) + ".tmp"
	if err := writeFileSync(tmp, b, s.opt.NoSync); err != nil {
		return err
	}
	if err := os.Rename(tmp, s.snapshotPath(next)); err != nil {
		os.Remove(tmp)
		return err
	}
	if !s.opt.NoSync {
		syncDir(s.dir)
	}
	w, err := openWAL(s.walPath(next), s.openFile, s.opt.NoSync)
	if err != nil {
		return err
	}
	old, oldGen := s.w, s.gen
	s.w, s.gen = w, next
	// The durable snapshot covers every frame of the old WAL, synced or
	// not; a Commit still outstanding on it is satisfied. Its close
	// error concerns a file about to be deleted.
	_ = old.retire()
	os.Remove(s.walPath(oldGen))
	os.Remove(s.snapshotPath(oldGen))
	return nil
}

// Close syncs what was written and releases the WAL file handle. The
// store stays readable.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.w == nil {
		return nil
	}
	err := s.w.close()
	s.w = nil
	return err
}

// Seq returns the highest run sequence number ever persisted; new run
// IDs must start above it so recovered listings never collide.
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Evicted returns the all-time eviction count (monotonic across
// restarts).
func (s *Store) Evicted() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evicted
}

// CacheHits returns the all-time memo cache hit count.
func (s *Store) CacheHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cacheHits
}

// Runs returns the stored runs in submission order. The records are the
// store's own (treat as read-only); callers consuming them across
// appends must clone.
func (s *Store) Runs() []*RunRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*RunRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.runs[id])
	}
	return out
}

func writeFileSync(path string, b []byte, noSync bool) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(b); err != nil {
		f.Close()
		return err
	}
	if !noSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
