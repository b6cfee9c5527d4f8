package main

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/wire"
)

// maxViolations caps how many violations one checker keeps; the count of
// the rest is still reported.
const maxViolations = 8

// checker verifies one session's results as they arrive: every ROT returns
// one item per key, aligned with the keys, holding a value of the workload's
// size (every key is preloaded); no read returns a timestamp older than the
// session's own last write of the key (read-your-writes) or than one it
// read before (monotonic reads). Versions are compared by timestamp alone:
// the timestamp-based family does not report a read version's source DC.
// A session runs one op at a time, so the checker needs no lock.
type checker struct {
	valueSize  int
	wrote      map[string]uint64
	read       map[string]uint64
	violations []string
	dropped    int
}

func newChecker(valueSize int) *checker {
	return &checker{valueSize: valueSize, wrote: map[string]uint64{}, read: map[string]uint64{}}
}

func (c *checker) fail(format string, args ...any) {
	if len(c.violations) < maxViolations {
		c.violations = append(c.violations, fmt.Sprintf(format, args...))
	} else {
		c.dropped++
	}
}

func (c *checker) put(key string, ts uint64) {
	c.wrote[key] = max(c.wrote[key], ts)
}

func (c *checker) rot(keys []string, kvs []wire.KV) {
	if len(kvs) != len(keys) {
		c.fail("rot over %d keys returned %d items", len(keys), len(kvs))
		return
	}
	for i, kv := range kvs {
		if kv.Key != keys[i] {
			c.fail("rot item %d is key %q, want %q", i, kv.Key, keys[i])
			continue
		}
		if len(kv.Value) != c.valueSize {
			c.fail("rot read %q: value of %d bytes (nil=%v), want %d", kv.Key, len(kv.Value), kv.Value == nil, c.valueSize)
			continue
		}
		if w := c.wrote[kv.Key]; kv.TS < w {
			c.fail("read-your-writes: %q read ts %d after writing ts %d", kv.Key, kv.TS, w)
		}
		if r := c.read[kv.Key]; kv.TS < r {
			c.fail("monotonic reads: %q read ts %d after reading ts %d", kv.Key, kv.TS, r)
			continue
		}
		c.read[kv.Key] = kv.TS
	}
}

func (c *checker) errors() []string {
	out := c.violations
	if c.dropped > 0 {
		out = append(out, fmt.Sprintf("... and %d more", c.dropped))
	}
	return out
}

// convergenceBound is how long after the last phase every DC may take to
// read the same latest version of every sampled key.
const convergenceBound = 10 * time.Second

// convergenceSample is how many written keys the convergence check reads.
const convergenceSample = 256

// checkConvergence reads a sample of the keys the sessions wrote with one
// fresh reader per DC, until every DC returns the same timestamp for each
// key and that timestamp is at least the newest acknowledged write's, or the
// bound passes. It returns the violations left at the bound.
func checkConvergence(sessions []*session, readers []caller, seed int64) []string {
	newest := map[string]uint64{}
	for _, s := range sessions {
		for k, ts := range s.chk.wrote {
			newest[k] = max(newest[k], ts)
		}
	}
	keys := make([]string, 0, len(newest))
	for k := range newest {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rand.New(rand.NewSource(seed)).Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	keys = keys[:min(len(keys), convergenceSample)]

	deadline := time.Now().Add(convergenceBound)
	for {
		problems := convergenceRound(keys, newest, readers)
		if len(problems) == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			if len(problems) > maxViolations {
				problems = append(problems[:maxViolations], fmt.Sprintf("... and %d more", len(problems)-maxViolations))
			}
			return problems
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func convergenceRound(keys []string, newest map[string]uint64, readers []caller) []string {
	const chunk = 16
	var problems []string
	for lo := 0; lo < len(keys); lo += chunk {
		batch := keys[lo:min(lo+chunk, len(keys))]
		seen := make([][]wire.KV, len(readers))
		for dc, r := range readers {
			ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
			kvs, err := r.ROT(ctx, batch)
			cancel()
			if err != nil || len(kvs) != len(batch) {
				problems = append(problems, fmt.Sprintf("convergence: dc%d rot failed: %v", dc, err))
				continue
			}
			seen[dc] = kvs
		}
		if len(problems) > 0 {
			return problems
		}
		for i, k := range batch {
			for dc := range readers {
				if got := seen[dc][i].TS; got != seen[0][i].TS || got < newest[k] {
					problems = append(problems, fmt.Sprintf("convergence: %q dc%d reads ts %d, dc0 reads ts %d, newest acknowledged write ts %d", k, dc, got, seen[0][i].TS, newest[k]))
				}
			}
		}
	}
	return problems
}
