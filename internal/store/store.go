// Package store is the content-addressed result store: an append-only
// single-file segment log of engine.Result records keyed by
// engine.Scenario.Digest, with an in-memory index rebuilt on open.
//
// Because every scenario is deterministic per seed, a result is a pure
// function of its scenario digest; storing it once makes every repeat
// sweep — in this process, another process, or a later CI run — a cache
// hit, and content addressing makes deduplication free (a Put of an
// already-present digest is a no-op).
//
// On-disk format (results.log):
//
//	magic   "IDONLYS1"                      (8 bytes, once)
//	record  length   uint32 big-endian      payload byte count
//	        key      32 raw bytes           scenario digest (SHA-256)
//	        payload  JSON engine.Result (json.Marshal's bytes, written
//	                 and read by engine.AppendResultJSON/DecodeResult)
//	        crc      uint32 big-endian      CRC-32C over key ∥ payload
//
// Records are only ever appended; a batch is flushed with one fsync,
// and concurrent batches group-commit: a batch whose bytes were already
// covered by another batch's fsync skips its own barrier. Open scans
// the log and truncates a torn or corrupt tail back to the last record
// whose CRC verifies, so a crash mid-batch loses at most the unflushed
// batches, never the records before them.
//
// The log is the only copy and it never shrinks: no record is ever
// rewritten or evicted, so the file Open recovers is the file every
// later read and append uses. Because every stored result can be
// recomputed from its scenario, reclaiming disk needs no mechanism:
// stop the process, delete the store directory, and the next sweeps
// recompute and re-store whatever they ask for.
//
// Every disk operation passes through the faults failpoint plane when
// the store is opened WithFaults, so chaos tests can error, delay,
// tear, or crash any read, append, or fsync; with no fault set attached
// the log handle is a bare *os.File.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"idonly/internal/engine"
	"idonly/internal/faults"
	"idonly/internal/obs"
)

const (
	logName   = "results.log"
	magic     = "IDONLYS1"
	keySize   = 32
	headerLen = 4 + keySize // length prefix + key
	// maxPayload bounds a single record so a corrupt length prefix can
	// never drive the open scan into a multi-gigabyte allocation.
	maxPayload = 64 << 20
	// maxPooledReadBuf bounds what one Get may leave in the read-buffer
	// pool; typical results are a few KB, so 1 MiB keeps every normal
	// buffer recyclable without retaining outliers.
	maxPooledReadBuf = 1 << 20
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// logFile is the store's view of its segment file: exactly the
// operations the log needs, satisfied by a bare *os.File and by the
// failpoint wrapper faults.File. The indirection is the entire cost of
// the chaos plane when it is disabled.
type logFile interface {
	io.ReaderAt
	io.WriterAt
	io.Writer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// indexKey is a record's key in the in-memory index: the first eight
// bytes of its raw scenario digest. The index holds one entry per
// record for the life of the process, so it keeps no more of the digest
// than that; the full digest is in the log beside every payload, and a
// lookup checks it there. Two digests that share an index key — odds
// of about n²/2⁶⁵ among n records — cost a cache miss, never a wrong
// result: the index keeps the later record. An entry costs 50–60
// bytes of heap where one keyed by the 64-character hex digest cost
// 130–145, and a long-running serve process holds one per stored
// result.
func indexKey(raw []byte) uint64 { return binary.BigEndian.Uint64(raw) }

// parseDigest decodes a digest in the lowercase hex form
// engine.Scenario.Digest returns, without allocating.
func parseDigest(digest string) (k [keySize]byte, ok bool) {
	if len(digest) != 2*keySize {
		return k, false
	}
	for i := range k {
		hi, lo := unhex(digest[2*i]), unhex(digest[2*i+1])
		if hi > 0xf || lo > 0xf {
			return k, false
		}
		k[i] = hi<<4 | lo
	}
	return k, true
}

func unhex(c byte) byte {
	switch {
	case '0' <= c && c <= '9':
		return c - '0'
	case 'a' <= c && c <= 'f':
		return c - 'a' + 10
	}
	return 0xff
}

// recordEnt locates one record's payload inside the log.
type recordEnt struct {
	off int64 // payload start
	n   int   // payload length
}

// Stats is a point-in-time snapshot of the store's counters.
// HotHits, Compactions and Evicted are always 0: the store has no
// in-memory result cache and never rewrites or evicts a record. They
// stay only because existing readers of the stats JSON decode them.
type Stats struct {
	Records     int   `json:"records"`     // distinct digests indexed
	LogBytes    int64 `json:"log_bytes"`   // current log size
	Gets        int64 `json:"gets"`        // Get calls since open
	Hits        int64 `json:"hits"`        // Gets that found a record
	HotHits     int64 `json:"hot_hits"`    // always 0
	Puts        int64 `json:"puts"`        // records appended since open
	DupPuts     int64 `json:"dup_puts"`    // Puts dropped as already present
	Truncated   int64 `json:"truncated"`   // bytes cut from a corrupt tail at open
	Coalesced   int64 `json:"coalesced"`   // misses served by another in-flight computation
	Compactions int64 `json:"compactions"` // always 0
	Evicted     int64 `json:"evicted"`     // always 0
}

// Store is an open result store. All methods are safe for concurrent
// use: appends serialize on an internal mutex, fsyncs group-commit on
// a second, and reads share an RWMutex'd index. The log handle is set
// once by Open and never replaced, so a read holds the index lock only
// for its lookup, not across the ReadAt.
type Store struct {
	mu   sync.Mutex   // serializes appends and Close
	f    logFile      // log handle, fixed at Open
	raw  *os.File     // unwrapped handle of f, for flock and abandon
	size atomic.Int64 // current log length (next append offset); stored under mu

	// pending counts batches whose bytes are written but whose index
	// entries are not yet published; Close waits it out so it never
	// closes the log under a batch mid-commit.
	pending sync.WaitGroup

	// syncMu serializes fsyncs; durable is the log offset the last
	// fsync covered, so a group-committed batch whose target offset is
	// already durable skips its own barrier entirely.
	syncMu  sync.Mutex
	durable int64

	path string

	imu   sync.RWMutex
	index map[uint64]recordEnt // by indexKey

	// faults is the optional failpoint set (WithFaults). Nil in
	// production; the wrapped log handle nil-checks it per op.
	faults *faults.Set

	// flights are the in-flight per-digest computations (singleflight);
	// see flight.go.
	fmu     sync.Mutex
	flights map[string]*flight

	// readBufs pools Get's read buffers: engine.DecodeResult never
	// retains its input (it copies every string it keeps), so a buffer
	// is safe to recycle the moment a Get returns — warm CachedRunAll
	// sweeps stop allocating one fresh buffer per read. Buffers above
	// maxPooledReadBuf are not returned to the pool: one giant record
	// must not pin its allocation for the life of a long-running serve
	// process.
	readBufs sync.Pool

	gets, hits, puts, dups, coalesced atomic.Int64
	truncated                         int64
	closed                            bool

	// inst is the optional metric set installed by Instrument. Nil
	// until then, so the uninstrumented hot path pays one atomic load
	// per Get/PutBatch and nothing else.
	inst atomic.Pointer[instruments]

	// events is the optional flight recorder attached by RecordEvents;
	// appends and recoveries land there as structured events. Same
	// nil-check contract as inst.
	events atomic.Pointer[obs.Recorder]
}

// Option configures a Store at Open.
type Option func(*Store)

// WithFaults routes every disk operation of the store through the
// failpoint set: log ops check log_read/log_write/log_sync/..., and the
// group-commit barrier checks store_sync_gate. A nil set is valid and
// equivalent to omitting the option.
func WithFaults(set *faults.Set) Option { return func(s *Store) { s.faults = set } }

// Open opens (creating if needed) the store rooted at dir. A torn or
// corrupt log tail — the signature of a crash mid-batch — is detected
// by CRC and truncated back to the last intact record; Stats.Truncated
// reports how many bytes were cut.
func Open(dir string, opts ...Option) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		path:    filepath.Join(dir, logName),
		index:   make(map[uint64]recordEnt),
		flights: make(map[string]*flight),
	}
	for _, opt := range opts {
		opt(s)
	}
	f, err := os.OpenFile(s.path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := lockFile(f); err != nil {
		f.Close()
		return nil, err
	}
	s.raw = f
	s.f = f
	if s.faults != nil {
		s.f = faults.WrapFile(f, s.faults, "log")
	}
	if err := s.recover(); err != nil {
		f.Close()
		return nil, err
	}
	// Make the log's directory entry itself durable: fsync-on-batch
	// protects record bytes, but a power loss right after the store's
	// first creation could otherwise drop the whole file.
	if err := syncDir(dir); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// recover scans the log, building the index and truncating anything
// after the last record that verifies.
func (s *Store) recover() error {
	fi, err := s.f.Stat()
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	size := fi.Size()
	if size == 0 {
		if _, err := s.f.Write([]byte(magic)); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := s.f.Sync(); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		s.setSize(int64(len(magic)))
		return nil
	}
	if size < int64(len(magic)) {
		// A torn header write: nothing recoverable, start over.
		return s.truncateTo(0, size, true)
	}
	hdr := make([]byte, len(magic))
	if _, err := s.f.ReadAt(hdr, 0); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if string(hdr) != magic {
		return fmt.Errorf("store: %s is not a result log (bad magic %q)", s.path, hdr)
	}

	off := int64(len(magic))
	buf := make([]byte, headerLen)
	for off < size {
		if size-off < int64(headerLen) {
			return s.truncateTo(off, size, false)
		}
		if _, err := s.f.ReadAt(buf, off); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		n := int(binary.BigEndian.Uint32(buf[:4]))
		if n <= 0 || n > maxPayload || size-off < int64(headerLen+n+4) {
			return s.truncateTo(off, size, false)
		}
		body := make([]byte, keySize+n+4)
		if _, err := s.f.ReadAt(body, off+4); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		want := binary.BigEndian.Uint32(body[keySize+n:])
		if crc32.Checksum(body[:keySize+n], crcTable) != want {
			return s.truncateTo(off, size, false)
		}
		s.index[indexKey(body)] = recordEnt{off: off + int64(headerLen), n: n}
		off += int64(headerLen + n + 4)
	}
	s.setSize(off)
	return nil
}

// setSize records the log length and marks it durable — only valid
// where the caller just fsynced (recovery).
func (s *Store) setSize(n int64) {
	s.size.Store(n)
	s.syncMu.Lock()
	s.durable = n
	s.syncMu.Unlock()
}

// truncateTo cuts the log at off (rewriting the magic when the header
// itself was torn) and records the loss.
func (s *Store) truncateTo(off, size int64, rewriteMagic bool) error {
	s.truncated = size - off
	if rewriteMagic {
		off = 0
	}
	if err := s.f.Truncate(off); err != nil {
		return fmt.Errorf("store: truncating corrupt tail: %w", err)
	}
	if rewriteMagic {
		if _, err := s.f.WriteAt([]byte(magic), 0); err != nil {
			return fmt.Errorf("store: %w", err)
		}
		off = int64(len(magic))
		s.truncated = size
	}
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.setSize(off)
	return nil
}

// Has reports whether a result for the digest is stored.
func (s *Store) Has(digest string) bool {
	raw, ok := parseDigest(digest)
	return ok && s.has(raw)
}

// has checks an index hit against the digest stored in the log.
func (s *Store) has(raw [keySize]byte) bool {
	s.imu.RLock()
	ent, ok := s.index[indexKey(raw[:])]
	s.imu.RUnlock()
	if !ok {
		return false
	}
	var stored [keySize]byte
	_, err := s.f.ReadAt(stored[:], ent.off-keySize)
	return err == nil && stored == raw
}

// Len returns the number of distinct digests indexed.
func (s *Store) Len() int {
	s.imu.RLock()
	defer s.imu.RUnlock()
	return len(s.index)
}

// Get returns the stored result for the digest, if any.
func (s *Store) Get(digest string) (engine.Result, bool, error) {
	if in := s.inst.Load(); in != nil {
		defer in.getLat.ObserveSince(time.Now())
	}
	s.gets.Add(1)
	raw, ok := parseDigest(digest)
	if !ok {
		return engine.Result{}, false, nil
	}
	s.imu.RLock()
	ent, ok := s.index[indexKey(raw[:])]
	s.imu.RUnlock()
	if !ok {
		return engine.Result{}, false, nil
	}
	// One read covers the stored digest and the payload after it.
	n := keySize + ent.n
	var rec []byte
	if b, _ := s.readBufs.Get().(*[]byte); b != nil && cap(*b) >= n {
		rec = (*b)[:n]
	} else {
		rec = make([]byte, n)
	}
	_, err := s.f.ReadAt(rec, ent.off-keySize)
	defer func() {
		if cap(rec) <= maxPooledReadBuf {
			s.readBufs.Put(&rec)
		}
	}()
	if err != nil {
		return engine.Result{}, false, fmt.Errorf("store: reading %s: %w", digest[:12], err)
	}
	if string(rec[:keySize]) != string(raw[:]) {
		return engine.Result{}, false, nil // another digest with the same index key
	}
	res, err := engine.DecodeResult(rec[keySize:])
	if err != nil {
		return engine.Result{}, false, fmt.Errorf("store: decoding %s: %w", digest[:12], err)
	}
	s.hits.Add(1)
	return res, true, nil
}

// PutBatch appends every not-yet-present result and makes the batch
// durable with at most one fsync; concurrent batches group-commit, so
// a batch whose bytes another batch's barrier already covered pays no
// fsync at all. The index is published only after the covering fsync
// succeeds: a reader can never be handed a record the disk might still
// lose. A result whose digest is already present is dropped — content
// addressing makes the second copy redundant by construction.
func (s *Store) PutBatch(results []engine.Result) error {
	if len(results) == 0 {
		return nil
	}
	if in := s.inst.Load(); in != nil {
		defer in.appendLat.ObserveSince(time.Now())
	}
	target, stage, nbytes, err := s.appendRecords(results)
	if err != nil || len(stage) == 0 {
		return err
	}
	// The batch's bytes are on the file; group-commit the barrier.
	if err := s.syncTo(target); err != nil {
		s.pending.Done()
		return err
	}
	s.imu.Lock()
	for _, st := range stage {
		s.index[st.key] = st.ent
	}
	s.imu.Unlock()
	s.puts.Add(int64(len(stage)))
	s.pending.Done()
	if rec := s.events.Load(); rec != nil {
		rec.Record("store_append",
			obs.F("records", strconv.Itoa(len(stage))),
			obs.F("bytes", strconv.Itoa(nbytes)))
	}
	return nil
}

type stagedPut struct {
	key uint64 // indexKey
	ent recordEnt
}

// appendRecords encodes and writes the batch under the append mutex,
// reserving [off, target) of the log. On success (stage non-empty) the
// store's pending count is raised; the caller owns the matching Done.
// The torn-write failpoint can panic out of here: the mutex unwinds
// via defer, the pending count was never raised, and the half-written
// batch is exactly what open-time recovery truncates.
func (s *Store) appendRecords(results []engine.Result) (target int64, stage []stagedPut, nbytes int, err error) {
	var buf []byte

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, nil, 0, errors.New("store: closed")
	}
	off := s.size.Load()
	seen := make(map[[keySize]byte]bool, len(results))
	for _, res := range results {
		digest := res.Scenario.Digest()
		raw, ok := parseDigest(digest)
		if !ok {
			return 0, nil, 0, fmt.Errorf("store: bad digest %q", digest)
		}
		if seen[raw] || s.has(raw) {
			s.dups.Add(1)
			continue
		}
		seen[raw] = true
		// The payload is encoded in place after its header; the length
		// prefix is patched in once it is known.
		rec := len(buf)
		buf = append(buf, 0, 0, 0, 0)
		buf = append(buf, raw[:]...)
		buf = engine.AppendResultJSON(buf, &res)
		n := len(buf) - rec - headerLen
		if n > maxPayload {
			return 0, nil, 0, fmt.Errorf("store: result %s exceeds the %d-byte record bound", res.Scenario.Name, maxPayload)
		}
		binary.BigEndian.PutUint32(buf[rec:], uint32(n))
		buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(buf[rec+4:], crcTable))
		stage = append(stage, stagedPut{key: indexKey(raw[:]), ent: recordEnt{off: off + int64(rec+headerLen), n: n}})
	}
	if len(stage) == 0 {
		return 0, nil, 0, nil
	}
	if _, err := s.f.WriteAt(buf, off); err != nil {
		return 0, nil, 0, fmt.Errorf("store: %w", err)
	}
	target = off + int64(len(buf))
	s.size.Store(target)
	s.pending.Add(1)
	return target, stage, len(buf), nil
}

// syncTo makes the log durable through at least target. Fsyncs
// serialize on syncMu; a caller that arrives after another's barrier
// already covered its bytes returns without touching the disk — this
// is the group commit that lets N concurrent small batches share one
// barrier instead of paying N.
func (s *Store) syncTo(target int64) error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if target <= s.durable {
		return nil
	}
	// store_sync_gate sits between winning the barrier and loading the
	// covered offset: a sleep here widens the window in which other
	// writers' bytes land and get credited to this fsync, which is how
	// tests pin down group commit deterministically.
	if err := s.faults.Check("store_sync_gate"); err != nil {
		return err
	}
	// Everything written before this point is covered by the fsync;
	// size only advances after a WriteAt completes, so loading it here
	// never over-promises.
	covered := s.size.Load()
	if err := s.f.Sync(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.durable = covered
	return nil
}

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	s.imu.RLock()
	records := len(s.index)
	s.imu.RUnlock()
	return Stats{
		Records:   records,
		LogBytes:  s.size.Load(),
		Gets:      s.gets.Load(),
		Hits:      s.hits.Load(),
		Puts:      s.puts.Load(),
		DupPuts:   s.dups.Load(),
		Truncated: s.truncated,
		Coalesced: s.coalesced.Load(),
	}
}

// Close flushes and closes the log. Further Puts fail; Gets against
// the closed file return errors.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.pending.Wait()
	s.closed = true
	if err := s.f.Sync(); err != nil {
		s.f.Close()
		return fmt.Errorf("store: %w", err)
	}
	return s.f.Close()
}

// abandon closes the store's raw descriptors without syncing or
// unlocking anything — the test-only stand-in for process death after
// an injected crash. flock conflicts between two handles held by one
// process, so a chaos test must abandon the crashed store before
// reopening the directory. The Store value must not be used again.
func (s *Store) abandon() { s.raw.Close() }
