// Package cclo implements CC-LO, the latency-optimal causal-consistency
// design of COPS-SNOW as characterized in Sections 3 and 5.2 of the paper.
//
// ROTs are one round, one version and nonblocking. The price is paid on
// writes: every PUT performs the "readers check", interrogating the
// partition of each causal dependency for the ROTs that read a version of
// that dependency now superseded ("old readers"), and marks the written
// version invisible to each of them before it becomes readable. A read by
// such a ROT is served the newest version NOT marked invisible to it,
// preserving causally consistent snapshots without coordination on the
// read path.
//
// Invisibility is tracked per VERSION, not as a per-key time cutoff: a
// time cutoff either fails to hide a dependent version whose origin
// timestamp trails the reader's local clock (per-partition Lamport clocks
// drift apart under geo-replication — the Figure 1 anomaly reappears), or,
// if clamped, also hides CONCURRENT versions the session may already have
// observed, breaking read-your-writes and monotonic reads. Marking exactly
// the dependent versions hides exactly what causality requires.
//
// The implementation includes the two optimizations the paper applied to
// its CC-LO code base (§5.2): reader entries are garbage-collected 500 ms
// after insertion, and every set of old readers — gathered from a key,
// merged across partitions, sent in a readers-check response or installed
// as marks — holds at most one ROT id per client (the most recent, valid
// because clients issue one ROT at a time). The rule is applied while the
// sets are built (readerSet), so they stay O(clients), not O(ROTs scanned).
package cclo

import (
	"math"
	"sync/atomic"
	"time"

	storeeng "repro/internal/store"
	"repro/internal/wire"
)

// loExtra is the per-version payload CC-LO attaches to the shared engine's
// versions: the dependency list (locally originated versions only — it is
// what the WAL snapshot serializer emits so a crash-recovered re-enqueue
// still carries the deps the receiving DC's dependency check needs) and the
// set of ROTs the version is invisible to.
//
// Mutation rules (see internal/store): the invisible MAP INTERIOR may be
// mutated under the shard lock — lock-free readers (latest, hasVersion,
// forEachLatest) never look inside it — but the invisible FIELD of a
// published version must never be reassigned; when it is nil and marks must
// land, the chain is republished via SetExtra.
type loExtra struct {
	deps      []wire.LoDep
	invisible map[uint64]orEntry
}

// loVersion is one version of a key under CC-LO as the adapter's callers see
// it: Lamport timestamp plus source DC for last-writer-wins convergence.
type loVersion struct {
	value []byte
	ts    uint64
	srcDC uint8
	deps  []wire.LoDep
}

// orEntry is one old reader of a key: the ROT id, the logical time of its
// read, the timestamp of the version it was served (what "old" is judged
// against), and when the entry was created (for GC).
type orEntry struct {
	rotID   uint64
	t       uint64
	vts     uint64
	addedAt time.Time
}

// loAux is the per-key reader state, read and written only under the shard
// lock (it is the aux slot of the shared engine's key entry).
type loAux struct {
	// readers holds the ROTs that have read the *current* latest version,
	// with the logical time of the read. They become old readers when a
	// newer version is installed.
	readers map[uint64]orEntry

	// oldReaders holds ROTs known to have read superseded versions; it is
	// what a readers check on this key returns (filtered by the version
	// each actually read).
	oldReaders map[uint64]orEntry

	// readersSweepAt/oldReadersSweepAt throttle the size-triggered sweeps:
	// a map pinned at the bound by IN-window entries would otherwise be
	// fully rescanned on every operation, reclaiming nothing.
	readersSweepAt    time.Time
	oldReadersSweepAt time.Time
}

// Shorthand for the engine instantiation backing CC-LO.
type (
	loEngine = storeeng.Engine[loExtra, loAux]
	loChain  = storeeng.Chain[loExtra]
	loEngVer = storeeng.Version[loExtra]
	loKeyRef = storeeng.Key[loExtra, loAux]
)

// softReaderBound is the map size at which the reader-tracking maps
// (readers and oldReaders) are swept in place before inserting more. It
// caps idle growth without a background goroutine: any map at the bound is
// reduced to the entries still inside the GC window.
const softReaderBound = 128

// sweepReaders runs the size-triggered sweep of m when it is due: at or
// above the bound, and not swept within the last quarter GC window. The
// throttle keeps a genuinely hot map (≥ bound of in-window entries) from
// paying a full fruitless rescan on every single read under the shard
// lock. It returns the next due time for the caller to store.
func (s *loStore) sweepReaders(m map[uint64]orEntry, at time.Time, now time.Time) time.Time {
	if len(m) < softReaderBound || now.Before(at) {
		return at
	}
	gcSweep(m, s.gcWindow, now)
	return now.Add(s.gcWindow / 4)
}

// loStore is the CC-LO partition storage: a thin adapter over the shared
// engine (internal/store). read/collectOldReaders/install/addMarks mutate
// reader state and run under the per-shard write lock; latest, hasVersion
// and forEachLatest are lock-free.
type loStore struct {
	eng      *loEngine
	gcWindow time.Duration

	approxReads atomic.Uint64
}

func newLoStore(maxVersions, shards int, gcWindow time.Duration) *loStore {
	if gcWindow <= 0 {
		gcWindow = 500 * time.Millisecond
	}
	return &loStore{
		eng:      storeeng.New[loExtra, loAux](maxVersions, shards),
		gcWindow: gcWindow,
	}
}

// expired reports whether e is past the GC window.
func (s *loStore) expired(e orEntry, now time.Time) bool {
	return now.Sub(e.addedAt) > s.gcWindow
}

// read serves a ROT read of key: the newest version not marked invisible
// to rotID. It records rotID as a reader of the version it was served at
// logical time t. ok is false if the key does not exist.
func (s *loStore) read(key string, rotID uint64, t uint64, now time.Time) (val []byte, ts uint64, src uint8, ok bool) {
	s.eng.Update(key, true, func(k *loKeyRef) {
		aux := k.Aux()
		c := k.Chain()
		if c.Len() == 0 {
			// Record the negative read. "No version" is an observation too:
			// when the key's first version arrives, this ROT must surface as
			// its old reader (vts 0), or a write depending on that version
			// could become readable next to this ROT's "not found" — the
			// Figure 1 anomaly with a missing key in the role of the stale
			// permissions.
			if aux.readers == nil {
				aux.readers = make(map[uint64]orEntry)
			}
			// Keys that are only ever probed have no install or readers check
			// to GC their entries, so sweep here once the map grows; what
			// remains is bounded by the probe rate times the GC window.
			aux.readersSweepAt = s.sweepReaders(aux.readers, aux.readersSweepAt, now)
			aux.readers[rotID] = orEntry{rotID: rotID, t: t, vts: 0, addedAt: now}
			return
		}
		vs := c.Versions
		for i := len(vs) - 1; i >= 0; i-- {
			v := &vs[i]
			if e, hidden := v.Extra.invisible[rotID]; hidden {
				if !s.expired(e, now) {
					continue
				}
				delete(v.Extra.invisible, rotID)
			}
			if i == len(vs)-1 {
				// Served the latest: record the read so a future write that
				// supersedes it can find this ROT among its old readers. A hot
				// key under a read-heavy, install-free workload accumulates one
				// entry per ROT with no install or readers check to GC them, so
				// sweep in-place once the map grows; what survives is bounded by
				// the read rate times the GC window.
				if aux.readers == nil {
					aux.readers = make(map[uint64]orEntry)
				}
				aux.readersSweepAt = s.sweepReaders(aux.readers, aux.readersSweepAt, now)
				aux.readers[rotID] = orEntry{rotID: rotID, t: t, vts: v.TS, addedAt: now}
			}
			val, ts, src, ok = v.Value, v.TS, v.Src, true
			return
		}
		// Every retained version is invisible to this ROT. On a chain that has
		// actually been trimmed, versions older than the marks were dropped,
		// so fall back to the oldest retained one (an approximation, counted).
		// On an untrimmed chain — even one that merely grew to capacity —
		// nothing was ever dropped: the ROT genuinely predates the key's FIRST
		// version (it probed the key while missing and a dependent write
		// collected it), so the only consistent answer is "not found". Serving
		// versions[0] here was the first-version startup race the checker's
		// keyspace seeding used to paper over.
		if c.Trimmed {
			s.approxReads.Add(1)
			val, ts, src, ok = vs[0].Value, vs[0].TS, vs[0].Src, true
		}
	})
	return val, ts, src, ok
}

// collectOldReaders adds to out the old readers of key relevant to a
// dependency on version depTS — every ROT whose served version of this key
// trails depTS, i.e. every ROT that would be inconsistent if it now saw a
// version depending on key@depTS. Three sources, all filtered precisely (an
// over-collected ROT would be hidden from versions it may legitimately
// have observed, breaking its session guarantees):
//
//   - oldReaders: ROTs that read a since-superseded latest; collected when
//     the version they read (vts) trails depTS.
//   - readers: ROTs on the current latest; collected only when the latest
//     itself trails depTS (the dependency has not replicated here yet).
//   - invisibility marks: a ROT hidden from every retained version at or
//     above depTS was served something older — the transitive propagation
//     that keeps a rewound ROT visible to later dependent writes.
//
// Expired entries are dropped from the key's maps during the same walk.
// scanned counts the live entries walked.
func (s *loStore) collectOldReaders(key string, depTS uint64, now time.Time, out readerSet) (scanned int) {
	s.eng.Update(key, false, func(k *loKeyRef) {
		aux := k.Aux()
		scanned += s.gather(aux.oldReaders, depTS, now, out)
		c := k.Chain()
		latestTS := uint64(0)
		if l := c.Latest(); l != nil {
			latestTS = l.TS
		}
		if latestTS < depTS {
			scanned += s.gather(aux.readers, math.MaxUint64, now, out)
		} else {
			// Not collected, but a probe-heavy dependency key with a current
			// latest never takes the branch above; keep its reader map bounded
			// here too.
			aux.readersSweepAt = s.sweepReaders(aux.readers, aux.readersSweepAt, now)
		}
		// Invisibility-derived old readers: every ROT marked on ANY version of
		// this key missed something in that version's causal past, so it is
		// conservatively treated as an old reader of the dependency too. The
		// conservatism is what keeps transitive propagation unbroken — a
		// concurrent newer version can mask a ROT's miss timestamp-wise
		// without covering the missed version's causal past on OTHER keys —
		// and it is session-safe: marks only ever exist on versions installed
		// during the marked ROT's own lifetime, so the extra hiding can never
		// take back state its session observed before. Chains are bounded by
		// maxVersions and marks are GC-swept, so this walk is small — and it
		// is write-path cost, which is exactly where CC-LO pays (§3).
		if c != nil {
			for i := range c.Versions {
				scanned += s.gather(c.Versions[i].Extra.invisible, math.MaxUint64, now, out)
			}
		}
	})
	return scanned
}

// gather walks one reader map in a single pass: expired entries are
// deleted, live ones counted, and those served a version below vtsBelow
// added to out.
func (s *loStore) gather(m map[uint64]orEntry, vtsBelow uint64, now time.Time, out readerSet) (scanned int) {
	for id, e := range m {
		if s.expired(e, now) {
			delete(m, id)
			continue
		}
		scanned++
		if e.vts < vtsBelow {
			out.add(e)
		}
	}
	return scanned
}

// readerSet is a set of old readers under the one-ROT-per-client rule,
// keyed by client (rotID>>32): per client it keeps the newest ROT id and,
// for that ROT, the entry with the earliest (safest) read time. Dropping a
// client's older ROTs is sound because a client issues one ROT at a time,
// so an older ROT has completed all its reads.
type readerSet map[uint64]orEntry

func (rs readerSet) add(e orEntry) {
	c := e.rotID >> 32
	if prev, ok := rs[c]; !ok || e.rotID > prev.rotID || e.rotID == prev.rotID && e.t < prev.t {
		rs[c] = e
	}
}

// merge keeps the safest (earliest-time) entry per ROT id.
func merge(out map[uint64]orEntry, id uint64, e orEntry) {
	if prev, ok := out[id]; !ok || e.t < prev.t {
		out[id] = e
	}
}

func gcSweep(m map[uint64]orEntry, window time.Duration, now time.Time) {
	for id, e := range m {
		if now.Sub(e.addedAt) > window {
			delete(m, id)
		}
	}
}

// install inserts a version of key, moves the key's current readers to its
// old readers, and marks the version invisible to the collected old
// readers of the PUT's dependencies. It returns true if the version is now
// the latest.
func (s *loStore) install(key string, v loVersion, collected readerSet, now time.Time) bool {
	newest := false
	s.eng.Update(key, true, func(k *loKeyRef) {
		ev := loEngVer{Value: v.value, TS: v.ts, Src: v.srcDC, Extra: loExtra{deps: v.deps}}
		if len(collected) > 0 {
			inv := make(map[uint64]orEntry, len(collected))
			for _, e := range collected {
				e.addedAt = now
				inv[e.rotID] = e
			}
			ev.Extra.invisible = inv
		}
		idx, isNewest, dup := k.Install(ev)
		if dup {
			if len(collected) > 0 {
				// A re-delivered update (lost ack, or a retry against a
				// recovered replica) arrives with freshly collected old
				// readers; the marks must land on the existing version or the
				// retry's readers check was for nothing and a rewound ROT
				// could see the version anyway.
				ex := &k.Chain().Versions[idx]
				if ex.Extra.invisible == nil {
					// The published version has no mark map to grow in place;
					// republish the chain with one (never assign the field).
					k.SetExtra(idx, loExtra{deps: ex.Extra.deps, invisible: ev.Extra.invisible})
				} else {
					for _, e := range collected {
						e.addedAt = now
						merge(ex.Extra.invisible, e.rotID, e)
					}
				}
			}
			return
		}
		newest = isNewest
		aux := k.Aux()
		if newest && len(aux.readers) > 0 {
			// The previous latest version is now superseded: its readers are
			// old readers from here on. An install-heavy key with no readers
			// checks (nothing ever depends on it) would grow oldReaders without
			// bound, so apply the same size-triggered sweep the reader map gets.
			if aux.oldReaders == nil {
				aux.oldReaders = make(map[uint64]orEntry, len(aux.readers))
			} else {
				aux.oldReadersSweepAt = s.sweepReaders(aux.oldReaders, aux.oldReadersSweepAt, now)
			}
			for id, e := range aux.readers {
				e.addedAt = now
				merge(aux.oldReaders, id, e)
			}
			clear(aux.readers)
		}
	})
	return newest
}

// addMarks rebuilds invisibility marks on the version of key identified by
// (ts, src) — WAL recovery replaying persisted old-reader records. Marks
// land with addedAt = now: the original insertion time did not survive the
// crash, so the GC window restarts, which only errs toward hiding longer —
// safe, because marks exist only on versions installed during the marked
// ROT's lifetime, so extra hiding can never take back state its session
// already observed. Records whose version is gone (trimmed, superseded out
// of the snapshot, or torn from the log tail) are dropped.
func (s *loStore) addMarks(key string, ts uint64, src uint8, entries []wire.ReaderEntry, now time.Time) {
	if len(entries) == 0 {
		return
	}
	s.eng.Update(key, false, func(k *loKeyRef) {
		c := k.Chain()
		idx := c.Find(ts, src)
		if idx < 0 {
			return
		}
		v := &c.Versions[idx]
		if v.Extra.invisible == nil {
			inv := make(map[uint64]orEntry, len(entries))
			for _, e := range entries {
				merge(inv, e.RotID, orEntry{rotID: e.RotID, t: e.T, addedAt: now})
			}
			k.SetExtra(idx, loExtra{deps: v.Extra.deps, invisible: inv})
			return
		}
		for _, e := range entries {
			merge(v.Extra.invisible, e.RotID, orEntry{rotID: e.RotID, t: e.T, addedAt: now})
		}
	})
}

// versionMarks is one retained version's identity and its non-expired
// invisibility marks, as collected for WAL snapshot emission.
type versionMarks struct {
	ts      uint64
	src     uint8
	entries []wire.ReaderEntry
}

// markedVersions returns, for every retained version of key carrying at
// least one non-expired invisibility mark, the version identity and its
// marks (oldest first; nil when none). It takes the shard lock briefly —
// mark maps are interior-mutable state — so the WAL snapshot serializer can
// collect marks per key and emit them with no lock held.
func (s *loStore) markedVersions(key string, now time.Time) []versionMarks {
	var out []versionMarks
	s.eng.Update(key, false, func(k *loKeyRef) {
		c := k.Chain()
		if c == nil {
			return
		}
		for i := range c.Versions {
			v := &c.Versions[i]
			var rs []wire.ReaderEntry
			for id, e := range v.Extra.invisible {
				if s.expired(e, now) {
					continue
				}
				rs = append(rs, wire.ReaderEntry{RotID: id, T: e.t})
			}
			if len(rs) > 0 {
				out = append(out, versionMarks{ts: v.TS, src: v.Src, entries: rs})
			}
		}
	})
	return out
}

// latest returns the newest version of key. Lock-free.
func (s *loStore) latest(key string) (loVersion, bool) {
	v := s.eng.Latest(key)
	if v == nil {
		return loVersion{}, false
	}
	return loVersion{value: v.Value, ts: v.TS, srcDC: v.Src, deps: v.Extra.deps}, true
}

// hasVersion reports whether the version of key identified by (ts, src)
// has been installed here (dependency-check predicate). The check is
// EXACT, not "any newer version": a newer CONCURRENT version can satisfy a
// ≥ check while being invisible to some rewound ROT, which would let a
// dependent update become readable before the one version that ROT could
// consistently be served has arrived — and a same-timestamp version from a
// DIFFERENT DC is a different version entirely (Lamport timestamps collide
// across DCs). A chain whose oldest retained version is already LWW-above
// (ts, src) proves the version was installed and trimmed. Lock-free.
func (s *loStore) hasVersion(key string, ts uint64, src uint8) bool {
	c := s.eng.View(key)
	if c.Len() == 0 {
		return false
	}
	want := loEngVer{TS: ts, Src: src}
	if c.Trimmed && want.Before(&c.Versions[0]) {
		// Only a chain that actually trimmed can have dropped the asked
		// version; on an untrimmed chain (even one exactly at capacity)
		// "LWW-below the oldest" just means never installed.
		return true
	}
	return c.Find(ts, src) >= 0
}

// forEachChain visits every key's retained chain (lock-free; chains are
// immutable snapshots, so fn may block without stalling writers).
func (s *loStore) forEachChain(fn func(key string, c *loChain)) {
	s.eng.ForEach(func(key string, c *loChain) bool {
		fn(key, c)
		return true
	})
}

// forEachLatest visits every key's newest version (tests, convergence).
// Lock-free.
func (s *loStore) forEachLatest(fn func(key string, v loVersion)) {
	s.forEachChain(func(key string, c *loChain) {
		l := c.Latest()
		fn(key, loVersion{value: l.Value, ts: l.TS, srcDC: l.Src, deps: l.Extra.deps})
	})
}

// readerSizes reports the sizes of key's reader-tracking maps (tests).
func (s *loStore) readerSizes(key string) (readers, oldReaders int) {
	s.eng.Update(key, false, func(k *loKeyRef) {
		readers, oldReaders = len(k.Aux().readers), len(k.Aux().oldReaders)
	})
	return readers, oldReaders
}
