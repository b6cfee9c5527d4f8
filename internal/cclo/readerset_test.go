package cclo

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/wire"
)

// oracleCollect is collectOldReaders as it was before the one-ROT-per-client
// rule moved into the gathering: a separate gcSweep pass, then a per-ROT-id
// merge of the three sources. With filterOnePerClient applied afterwards it
// is the oracle the client-keyed readerSet is checked against.
func oracleCollect(s *loStore, key string, depTS uint64, now time.Time, out map[uint64]orEntry) (scanned int) {
	s.eng.Update(key, false, func(k *loKeyRef) {
		aux := k.Aux()
		gcSweep(aux.oldReaders, s.gcWindow, now)
		for id, e := range aux.oldReaders {
			scanned++
			if e.vts < depTS {
				merge(out, id, e)
			}
		}
		c := k.Chain()
		latestTS := uint64(0)
		if l := c.Latest(); l != nil {
			latestTS = l.TS
		}
		if latestTS < depTS {
			gcSweep(aux.readers, s.gcWindow, now)
			for id, e := range aux.readers {
				scanned++
				merge(out, id, e)
			}
		} else {
			aux.readersSweepAt = s.sweepReaders(aux.readers, aux.readersSweepAt, now)
		}
		if c != nil {
			for i := range c.Versions {
				inv := c.Versions[i].Extra.invisible
				for id, e := range inv {
					if s.expired(e, now) {
						delete(inv, id)
						continue
					}
					scanned++
					merge(out, id, e)
				}
			}
		}
	})
	return scanned
}

// filterOnePerClient is the former post-merge filter: per client, only the
// most recent ROT id survives, with the entry the per-ROT merge kept for it.
func filterOnePerClient(in map[uint64]orEntry) map[uint64]orEntry {
	best := make(map[uint64]orEntry, len(in))
	for id, e := range in {
		client := id >> 32
		if prev, ok := best[client]; !ok || id > prev.rotID {
			best[client] = e
		}
	}
	out := make(map[uint64]orEntry, len(best))
	for _, e := range best {
		out[e.rotID] = e
	}
	return out
}

// byROT re-keys a readerSet by ROT id, the shape the oracle produces.
func byROT(rs readerSet) map[uint64]orEntry {
	out := make(map[uint64]orEntry, len(rs))
	for _, e := range rs {
		out[e.rotID] = e
	}
	return out
}

func maxT(m map[uint64]orEntry) uint64 {
	var t uint64
	for _, e := range m {
		t = max(t, e.t)
	}
	return t
}

// TestClientKeyedGatherMatchesPerROTOracle drives twin sets of partitions
// through the same random reads, installs and persisted marks, then runs
// readers checks on both: one through the client-keyed path the server
// uses (local collects, remote answers shipped as wire entries, the
// origin's old readers of a replicated update), one through the per-ROT
// oracle with filterOnePerClient applied to every response and to the
// merged set. Both must yield the same entries per ROT id (t and vts), the
// same maxT, the same scanned count, and leave the same reader-map
// footprint behind.
func TestClientKeyedGatherMatchesPerROTOracle(t *testing.T) {
	const (
		parts    = 3
		keysPer  = 3
		clients  = 6
		rotsPer  = 4
		gcWindow = 40 * time.Millisecond
	)
	type dep struct {
		p   int
		key string
		ts  uint64
	}
	keyOf := func(p, i int) string { return fmt.Sprintf("p%dk%d", p, i) }
	var checks, dropped int
	for seed := int64(1); seed <= 200; seed++ {
		r := rand.New(rand.NewSource(seed))
		got, want := make([]*loStore, parts), make([]*loStore, parts)
		for p := range got {
			got[p], want[p] = newLoStore(4, 1, gcWindow), newLoStore(4, 1, gcWindow)
		}
		rot := func() uint64 { return uint64(r.Intn(clients))<<32 | uint64(r.Intn(rotsPer)+1) }
		ts := uint64(1)
		// entries draws reader entries from a small id space, so a list often
		// names several ROTs of one client and the same ROT with different t.
		entries := func() []wire.ReaderEntry {
			var es []wire.ReaderEntry
			for n := r.Intn(6); n > 0; n-- {
				e := wire.ReaderEntry{RotID: rot(), T: uint64(r.Intn(int(ts)) + 1)}
				es = append(es, e)
				if r.Intn(3) == 0 {
					es = append(es, wire.ReaderEntry{RotID: e.RotID, T: uint64(r.Intn(int(ts)) + 1)})
				}
			}
			return es
		}
		t0 := time.Now()
		var clock time.Duration
		for op := 0; op < 400; op++ {
			clock += time.Duration(r.Intn(200)) * time.Microsecond
			if r.Intn(100) == 0 {
				clock += gcWindow
			}
			now := t0.Add(clock)
			p := r.Intn(parts)
			k := keyOf(p, r.Intn(keysPer))
			switch r.Intn(5) {
			case 0, 1: // ROT read: readers now, old readers after the next install
				id, rt := rot(), uint64(r.Intn(int(ts))+1)
				got[p].read(k, id, rt, now)
				want[p].read(k, id, rt, now)
			case 2: // install, then marks rebuilt per ROT id (several per client)
				ts++
				marks := entries()
				for _, s := range []*loStore{got[p], want[p]} {
					s.install(k, loVersion{ts: ts}, nil, now)
					s.addMarks(k, ts, 0, marks, now)
				}
			case 3: // install carrying a collected set as marks
				ts++
				set := make(readerSet)
				for _, e := range entries() {
					set.add(orEntry{rotID: e.RotID, t: e.T})
				}
				got[p].install(k, loVersion{ts: ts}, set, now)
				want[p].install(k, loVersion{ts: ts}, set, now)
			case 4: // readers check coordinated by partition p
				var deps []dep
				for n := r.Intn(4) + 1; n > 0; n-- {
					q := r.Intn(parts)
					deps = append(deps, dep{q, keyOf(q, r.Intn(keysPer)), uint64(r.Intn(int(ts)+2) + 1)})
				}
				origin := entries()

				// Client-keyed: readersCheck, handleOldReaders, handleRepUpdate.
				gotSet, gotScanned := make(readerSet), 0
				for q := 0; q < parts; q++ {
					resp := gotSet
					if q != p {
						resp = make(readerSet)
					}
					for _, d := range deps {
						if d.p == q {
							gotScanned += got[q].collectOldReaders(d.key, d.ts, now, resp)
						}
					}
					if q != p {
						for _, e := range entriesToWire(resp) {
							gotSet.add(orEntry{rotID: e.RotID, t: e.T})
						}
					}
				}

				// Oracle: per-ROT merges, filtered per response and once merged.
				all, wantScanned := make(map[uint64]orEntry), 0
				for q := 0; q < parts; q++ {
					resp := all
					if q != p {
						resp = make(map[uint64]orEntry)
					}
					for _, d := range deps {
						if d.p == q {
							wantScanned += oracleCollect(want[q], d.key, d.ts, now, resp)
						}
					}
					if q != p {
						for id, e := range filterOnePerClient(resp) {
							merge(all, id, orEntry{rotID: id, t: e.t})
						}
					}
				}
				merged := len(all)
				all = filterOnePerClient(all)
				dropped += merged - len(all)
				checks++

				if gotScanned != wantScanned {
					t.Fatalf("seed %d op %d: scanned %d, oracle %d", seed, op, gotScanned, wantScanned)
				}
				if g := byROT(gotSet); !sameCollected(g, all) || maxT(g) != maxT(all) {
					t.Fatalf("seed %d op %d: check gathered %v, oracle %v", seed, op, g, all)
				}
				// The origin's old readers join under the same rule.
				for _, e := range origin {
					gotSet.add(orEntry{rotID: e.RotID, t: e.T})
					merge(all, e.RotID, orEntry{rotID: e.RotID, t: e.T})
				}
				if g, w := byROT(gotSet), filterOnePerClient(all); !sameCollected(g, w) {
					t.Fatalf("seed %d op %d: with origin entries %v, oracle %v", seed, op, g, w)
				}
				for q := 0; q < parts; q++ {
					for i := 0; i < keysPer; i++ {
						gr, gor := got[q].readerSizes(keyOf(q, i))
						wr, wor := want[q].readerSizes(keyOf(q, i))
						if gr != wr || gor != wor {
							t.Fatalf("seed %d op %d: %s reader maps (%d, %d), oracle (%d, %d)",
								seed, op, keyOf(q, i), gr, gor, wr, wor)
						}
					}
				}
			}
		}
	}
	if checks == 0 || dropped == 0 {
		t.Fatalf("%d checks dropped %d entries: the trace never put two ROTs of one client in a set", checks, dropped)
	}
}
