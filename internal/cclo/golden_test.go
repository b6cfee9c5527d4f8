package cclo

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// refLoStore is the pre-refactor CC-LO store logic, vendored verbatim
// (minus locking and sharding): the golden oracle for the reader-tracking
// and invisibility semantics — reads that rewind past marked versions,
// reader recording, the readers → oldReaders move on install, dup-merge of
// re-collected marks, collectOldReaders' three sources, GC sweeps, and the
// trimmed-chain fallbacks. The trace uses a synthetic clock, so every
// sweep and expiry fires identically in both implementations.
type refLoVersion struct {
	value     []byte
	ts        uint64
	srcDC     uint8
	invisible map[uint64]orEntry
}

func (v *refLoVersion) before(o *refLoVersion) bool {
	if v.ts != o.ts {
		return v.ts < o.ts
	}
	return v.srcDC < o.srcDC
}

type refLoKey struct {
	versions          []refLoVersion
	trimmed           bool
	readers           map[uint64]orEntry
	oldReaders        map[uint64]orEntry
	readersSweepAt    time.Time
	oldReadersSweepAt time.Time
}

type refLoStore struct {
	m           map[string]*refLoKey
	maxVersions int
	gcWindow    time.Duration
	approxReads uint64
}

func newRefLoStore(maxVersions int, gcWindow time.Duration) *refLoStore {
	return &refLoStore{m: make(map[string]*refLoKey), maxVersions: maxVersions, gcWindow: gcWindow}
}

func (s *refLoStore) expired(e orEntry, now time.Time) bool {
	return now.Sub(e.addedAt) > s.gcWindow
}

func (s *refLoStore) sweepReaders(m map[uint64]orEntry, at time.Time, now time.Time) time.Time {
	if len(m) < softReaderBound || now.Before(at) {
		return at
	}
	gcSweep(m, s.gcWindow, now)
	return now.Add(s.gcWindow / 4)
}

func (s *refLoStore) read(key string, rotID uint64, t uint64, now time.Time) (val []byte, ts uint64, src uint8, ok bool) {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		if lk == nil {
			lk = &refLoKey{}
			s.m[key] = lk
		}
		if lk.readers == nil {
			lk.readers = make(map[uint64]orEntry)
		}
		lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
		lk.readers[rotID] = orEntry{rotID: rotID, t: t, vts: 0, addedAt: now}
		return nil, 0, 0, false
	}
	for i := len(lk.versions) - 1; i >= 0; i-- {
		v := &lk.versions[i]
		if e, hidden := v.invisible[rotID]; hidden {
			if !s.expired(e, now) {
				continue
			}
			delete(v.invisible, rotID)
		}
		if i == len(lk.versions)-1 {
			if lk.readers == nil {
				lk.readers = make(map[uint64]orEntry)
			}
			lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
			lk.readers[rotID] = orEntry{rotID: rotID, t: t, vts: v.ts, addedAt: now}
		}
		return v.value, v.ts, v.srcDC, true
	}
	if lk.trimmed {
		s.approxReads++
		return lk.versions[0].value, lk.versions[0].ts, lk.versions[0].srcDC, true
	}
	return nil, 0, 0, false
}

func (s *refLoStore) collectOldReaders(key string, depTS uint64, now time.Time, out map[uint64]orEntry) {
	lk := s.m[key]
	if lk == nil {
		return
	}
	gcSweep(lk.oldReaders, s.gcWindow, now)
	for id, e := range lk.oldReaders {
		if e.vts < depTS {
			merge(out, id, e)
		}
	}
	latestTS := uint64(0)
	if len(lk.versions) > 0 {
		latestTS = lk.versions[len(lk.versions)-1].ts
	}
	if latestTS < depTS {
		gcSweep(lk.readers, s.gcWindow, now)
		for id, e := range lk.readers {
			merge(out, id, e)
		}
	} else {
		lk.readersSweepAt = s.sweepReaders(lk.readers, lk.readersSweepAt, now)
	}
	for i := range lk.versions {
		inv := lk.versions[i].invisible
		for id, e := range inv {
			if s.expired(e, now) {
				delete(inv, id)
				continue
			}
			merge(out, id, e)
		}
	}
}

func (s *refLoStore) install(key string, v refLoVersion, collected map[uint64]orEntry, now time.Time) bool {
	lk := s.m[key]
	if lk == nil {
		lk = &refLoKey{}
		s.m[key] = lk
	}
	i := len(lk.versions)
	for i > 0 && v.before(&lk.versions[i-1]) {
		i--
	}
	dup := i > 0 && lk.versions[i-1].ts == v.ts && lk.versions[i-1].srcDC == v.srcDC
	if dup && len(collected) > 0 {
		ex := &lk.versions[i-1]
		if ex.invisible == nil {
			ex.invisible = make(map[uint64]orEntry, len(collected))
		}
		for id, e := range collected {
			e.addedAt = now
			merge(ex.invisible, id, e)
		}
	}
	newest := false
	if !dup {
		if len(collected) > 0 {
			v.invisible = make(map[uint64]orEntry, len(collected))
			for id, e := range collected {
				e.addedAt = now
				v.invisible[id] = e
			}
		}
		lk.versions = append(lk.versions, refLoVersion{})
		copy(lk.versions[i+1:], lk.versions[i:])
		lk.versions[i] = v
		newest = i == len(lk.versions)-1
		if len(lk.versions) > s.maxVersions {
			drop := len(lk.versions) - s.maxVersions
			lk.versions = append(lk.versions[:0:0], lk.versions[drop:]...)
			lk.trimmed = true
		}
	}
	if newest && len(lk.readers) > 0 {
		if lk.oldReaders == nil {
			lk.oldReaders = make(map[uint64]orEntry, len(lk.readers))
		} else {
			lk.oldReadersSweepAt = s.sweepReaders(lk.oldReaders, lk.oldReadersSweepAt, now)
		}
		for id, e := range lk.readers {
			e.addedAt = now
			merge(lk.oldReaders, id, e)
		}
		clear(lk.readers)
	}
	return newest
}

func (s *refLoStore) latest(key string) (refLoVersion, bool) {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		return refLoVersion{}, false
	}
	return lk.versions[len(lk.versions)-1], true
}

func (s *refLoStore) hasVersion(key string, ts uint64, src uint8) bool {
	lk := s.m[key]
	if lk == nil || len(lk.versions) == 0 {
		return false
	}
	want := refLoVersion{ts: ts, srcDC: src}
	if lk.trimmed && want.before(&lk.versions[0]) {
		return true
	}
	for i := len(lk.versions) - 1; i >= 0 && lk.versions[i].ts >= ts; i-- {
		if lk.versions[i].ts == ts && lk.versions[i].srcDC == src {
			return true
		}
	}
	return false
}

func (s *refLoStore) readerSizes(key string) (readers, oldReaders int) {
	if lk := s.m[key]; lk != nil {
		return len(lk.readers), len(lk.oldReaders)
	}
	return 0, 0
}

// sameCollected compares two collected-old-reader maps on the fields that
// drive invisibility (addedAt is a wall-clock both sides share anyway).
func sameCollected(a, b map[uint64]orEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for id, ea := range a {
		eb, ok := b[id]
		if !ok || ea.t != eb.t || ea.vts != eb.vts {
			return false
		}
	}
	return true
}

// TestGoldenTraceMatchesPreRefactorStore replays a deterministic
// synthetic-clock trace — ROT reads, installs with freshly collected old
// readers, dup re-deliveries, dependency probes, GC-window expiries —
// against the engine-backed loStore and the vendored pre-refactor logic,
// requiring identical answers and identical reader-map footprints at every
// step. ROT ids come from several clients; the reference's per-ROT
// collection is projected through filterOnePerClient (what the server
// installed), which must equal the loStore's client-keyed collection, and
// that projected set is what both sides install.
func TestGoldenTraceMatchesPreRefactorStore(t *testing.T) {
	const maxVersions = 4
	const gcWindow = 40 * time.Millisecond
	r := rand.New(rand.NewSource(20180413))
	eng := newLoStore(maxVersions, 1, gcWindow)
	ref := newRefLoStore(maxVersions, gcWindow)

	keys := make([]string, 12)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	t0 := time.Now()
	var clock time.Duration // synthetic time; both sides see the same now
	nextTS := uint64(1)
	for op := 0; op < 6000; op++ {
		// Advance time; occasional jumps push entries past the GC window so
		// expiry paths (read unhide, sweeps, collect drops) execute.
		clock += time.Duration(r.Intn(64)) * time.Microsecond
		if r.Intn(200) == 0 {
			clock += gcWindow + time.Millisecond
		}
		now := t0.Add(clock)
		key := keys[r.Intn(len(keys))]
		rotID := uint64(r.Intn(8))<<32 | uint64(r.Intn(8)+1)
		switch r.Intn(6) {
		case 0, 1: // ROT read
			gv, gts, gsrc, gok := eng.read(key, rotID, nextTS, now)
			wv, wts, wsrc, wok := ref.read(key, rotID, nextTS, now)
			if gok != wok || gts != wts || gsrc != wsrc || !bytes.Equal(gv, wv) {
				t.Fatalf("op %d: read(%s, rot %d) = (%q,%d,%d,%v), golden (%q,%d,%d,%v)",
					op, key, rotID, gv, gts, gsrc, gok, wv, wts, wsrc, wok)
			}
			nextTS++
		case 2, 3: // install, with old readers collected from a dependency key
			depKey := keys[r.Intn(len(keys))]
			depTS := uint64(r.Intn(int(nextTS)) + 1)
			gout := make(readerSet)
			wout := make(map[uint64]orEntry)
			eng.collectOldReaders(depKey, depTS, now, gout)
			ref.collectOldReaders(depKey, depTS, now, wout)
			wout = filterOnePerClient(wout)
			if !sameCollected(byROT(gout), wout) {
				t.Fatalf("op %d: collectOldReaders(%s, %d) = %v, golden %v", op, depKey, depTS, gout, wout)
			}
			ts := nextTS
			if r.Intn(4) == 0 && ts > 1 {
				ts = uint64(r.Intn(int(ts)) + 1) // re-delivery: may hit a dup
			} else {
				nextTS++
			}
			val := []byte(fmt.Sprintf("%s@%d", key, ts))
			src := uint8(r.Intn(2))
			gnew := eng.install(key, loVersion{value: val, ts: ts, srcDC: src}, gout, now)
			wnew := ref.install(key, refLoVersion{value: val, ts: ts, srcDC: src}, wout, now)
			if gnew != wnew {
				t.Fatalf("op %d: install(%s, ts=%d src=%d) newest=%v, golden %v", op, key, ts, src, gnew, wnew)
			}
		case 4: // dependency probe
			ts := uint64(r.Intn(int(nextTS)) + 1)
			if got, want := eng.hasVersion(key, ts, 0), ref.hasVersion(key, ts, 0); got != want {
				t.Fatalf("op %d: hasVersion(%s, %d) = %v, golden %v", op, key, ts, got, want)
			}
		case 5: // latest + reader-map footprint
			gv, gok := eng.latest(key)
			wv, wok := ref.latest(key)
			if gok != wok || (gok && (gv.ts != wv.ts || !bytes.Equal(gv.value, wv.value))) {
				t.Fatalf("op %d: latest(%s) = (%+v, %v), golden (%+v, %v)", op, key, gv, gok, wv, wok)
			}
			gr, gor := eng.readerSizes(key)
			wr, wor := ref.readerSizes(key)
			if gr != wr || gor != wor {
				t.Fatalf("op %d: readerSizes(%s) = (%d, %d), golden (%d, %d)", op, key, gr, gor, wr, wor)
			}
		}
	}
	if got, want := eng.approxReads.Load(), ref.approxReads; got != want {
		t.Fatalf("approxReads = %d, golden %d: trimmed-fallback accounting diverged", got, want)
	}
}
