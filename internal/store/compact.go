package store

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"idonly/internal/obs"
)

// CompactStats describes one completed compaction.
type CompactStats struct {
	Kept           int   `json:"kept"`
	Evicted        int   `json:"evicted"`
	BytesBefore    int64 `json:"bytes_before"`
	BytesAfter     int64 `json:"bytes_after"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	WallNS         int64 `json:"wall_ns"`
}

// Compact rewrites the live records into a fresh log and atomically
// swaps it in: temp file + fsync + rename over results.log + directory
// fsync, all under the append mutex and the store's existing flock
// regime (the temp file is flocked before the rename, so the active
// log is locked at every instant). target > 0 additionally evicts
// least-recently-Get records until the new log fits in target bytes;
// target <= 0 keeps every record (a pure rewrite).
//
// Crash safety, by failpoint:
//
//	compact_write / compact_sync   temp file torn or unsynced — the old
//	                               log was never touched; Open removes
//	                               the stale temp
//	compact_pre_rename             temp complete but not renamed — same
//	compact_post_rename            renamed but directory not yet synced
//	                               — the new log is the log; Open
//	                               indexes exactly the kept records
//
// There is deliberately no deferred temp-file cleanup: an injected
// crash must leave the disk exactly as kill -9 would, so error-path
// cleanup is explicit and panic paths touch nothing.
func (s *Store) Compact(target int64) (CompactStats, error) {
	if in := s.inst.Load(); in != nil {
		defer in.compactLat.ObserveSince(time.Now())
	}
	start := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return CompactStats{}, fmt.Errorf("store: closed")
	}
	// Drain written-but-unpublished batches: their bytes are in the old
	// log and must be carried over, so they have to finish committing
	// before the snapshot below.
	s.pending.Wait()
	s.syncMu.Lock()
	defer s.syncMu.Unlock()

	type liveRec struct {
		key uint64 // indexKey
		off int64  // payload start; the digest is the keySize bytes before it
		n   int
		use int64
	}
	s.imu.RLock()
	live := make([]liveRec, 0, len(s.index))
	for key, ent := range s.index {
		live = append(live, liveRec{key: key, off: ent.off, n: ent.n, use: ent.use.Load()})
	}
	s.imu.RUnlock()

	recSize := func(n int) int64 { return int64(headerLen + n + 4) }

	// Eviction: most-recently-used records survive, up to the byte
	// budget; ties (never-Get records) break toward keeping the newer
	// log position, since recovery assigned ascending clocks in scan
	// order and appends keep bumping the clock.
	var evicted []liveRec
	if target > 0 {
		sort.Slice(live, func(i, j int) bool { return live[i].use > live[j].use })
		projected := int64(len(magic))
		kept := live[:0]
		for _, r := range live {
			if projected+recSize(r.n) > target {
				evicted = append(evicted, r)
				continue
			}
			projected += recSize(r.n)
			kept = append(kept, r)
		}
		live = kept
	}
	// The hot cache is keyed by hex digest: read the evicted records'
	// digests while the old log is still the log.
	var evictedDigests []string
	if s.hot != nil {
		var raw [keySize]byte
		for _, r := range evicted {
			if _, err := s.f.ReadAt(raw[:], r.off-keySize); err != nil {
				return CompactStats{}, fmt.Errorf("store: compact: reading %016x: %w", r.key, err)
			}
			evictedDigests = append(evictedDigests, hex.EncodeToString(raw[:]))
		}
	}
	// Write survivors in their current log order: the rewritten log
	// reads like the old one minus the evictions, and sequential source
	// reads stay sequential.
	sort.Slice(live, func(i, j int) bool { return live[i].off < live[j].off })

	tmpPath := filepath.Join(s.dir, tmpName)
	tf, err := os.OpenFile(tmpPath, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return CompactStats{}, fmt.Errorf("store: compact: %w", err)
	}
	s.tmpf = tf
	wf := s.wrapLog(tf, "compact")
	// Explicit error-path cleanup (never deferred — see the crash note
	// above): valid only before the rename.
	fail := func(err error) (CompactStats, error) {
		tf.Close()
		os.Remove(tmpPath)
		s.tmpf = nil
		return CompactStats{}, err
	}

	bw := bufio.NewWriterSize(wf, 256<<10)
	if _, err := bw.WriteString(magic); err != nil {
		return fail(fmt.Errorf("store: compact: %w", err))
	}
	newIndex := make(map[uint64]*recordEnt, len(live))
	newOff := int64(len(magic))
	var hdr [4]byte
	for _, r := range live {
		body := make([]byte, keySize+r.n+4) // digest ∥ payload ∥ stored crc
		if _, err := s.f.ReadAt(body, r.off-keySize); err != nil {
			return fail(fmt.Errorf("store: compact: reading %016x: %w", r.key, err))
		}
		// Verify before carrying over: a silently corrupted record must
		// fail the compaction, not be laundered into a fresh log with a
		// recomputed checksum.
		if crc32.Checksum(body[:keySize+r.n], crcTable) != binary.BigEndian.Uint32(body[keySize+r.n:]) {
			return fail(fmt.Errorf("store: compact: record %016x fails its checksum", r.key))
		}
		binary.BigEndian.PutUint32(hdr[:], uint32(r.n))
		if _, err := bw.Write(hdr[:]); err != nil {
			return fail(fmt.Errorf("store: compact: %w", err))
		}
		if _, err := bw.Write(body); err != nil {
			return fail(fmt.Errorf("store: compact: %w", err))
		}
		ent := &recordEnt{off: newOff + headerLen, n: r.n}
		ent.use.Store(r.use)
		newIndex[r.key] = ent
		newOff += recSize(r.n)
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("store: compact: %w", err))
	}
	if err := wf.Sync(); err != nil {
		return fail(fmt.Errorf("store: compact: %w", err))
	}
	if err := s.faults.Check("compact_pre_rename"); err != nil {
		return fail(fmt.Errorf("store: compact: %w", err))
	}
	// Lock the replacement before it becomes the log, so the active
	// file carries an exclusive flock at every instant of the swap.
	if err := lockFile(tf); err != nil {
		return fail(err)
	}
	if err := os.Rename(tmpPath, s.path); err != nil {
		return fail(fmt.Errorf("store: compact: %w", err))
	}
	// Past the rename the new file IS the log; every path below must
	// complete the in-memory swap, errors included, or memory and disk
	// diverge. A crash here is fine: Open reads the renamed file.
	postErr := s.faults.Check("compact_post_rename")

	bytesBefore := s.size.Load()
	s.imu.Lock()
	oldRaw := s.raw
	s.f = wf
	s.raw = tf
	s.index = newIndex
	s.imu.Unlock()
	s.tmpf = nil
	s.size.Store(newOff)
	s.durable = newOff // syncMu is held
	// The old descriptor points at the unlinked inode; closing it
	// releases its flock. Errors are moot — the data lives elsewhere.
	oldRaw.Close()
	for _, d := range evictedDigests {
		s.hot.remove(d)
	}

	if postErr == nil {
		postErr = syncDir(s.dir)
	}

	stats := CompactStats{
		Kept:           len(live),
		Evicted:        len(evicted),
		BytesBefore:    bytesBefore,
		BytesAfter:     newOff,
		ReclaimedBytes: bytesBefore - newOff,
		WallNS:         time.Since(start).Nanoseconds(),
	}
	s.compactions.Add(1)
	s.evicted.Add(int64(stats.Evicted))
	if stats.ReclaimedBytes > 0 {
		s.reclaimed.Add(stats.ReclaimedBytes)
	}
	if rec := s.events.Load(); rec != nil {
		rec.Record("store_compact",
			obs.F("kept", strconv.Itoa(stats.Kept)),
			obs.F("evicted", strconv.Itoa(stats.Evicted)),
			obs.F("bytes_before", strconv.FormatInt(stats.BytesBefore, 10)),
			obs.F("bytes_after", strconv.FormatInt(stats.BytesAfter, 10)))
	}
	if postErr != nil {
		return stats, fmt.Errorf("store: compact: after rename: %w", postErr)
	}
	return stats, nil
}
