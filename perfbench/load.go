package main

import (
	"context"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
	"repro/internal/workload"
)

// caller is the client surface the load generator needs; every protocol's
// session client satisfies it, and the tests substitute fakes.
type caller interface {
	Put(ctx context.Context, key string, value []byte) (uint64, error)
	ROT(ctx context.Context, keys []string) ([]wire.KV, error)
}

// opTimeout bounds one client call; a call that exceeds it fails.
const opTimeout = 5 * time.Second

type op struct {
	put  bool
	keys []string
}

// session is one client session: its client, the output checker fed by
// its results, and the put buffer it alone writes.
type session struct {
	cli   caller
	chk   *checker
	value []byte
	gen   *workload.Gen // closed-loop operations
	spans *tracer       // nil in untraced runs
}

func newSession(cli caller, valueSize int, gen *workload.Gen) *session {
	return &session{cli: cli, chk: newChecker(valueSize), value: make([]byte, valueSize), gen: gen}
}

// do runs one operation and feeds its result to the session's checker.
func (s *session) do(o op) error {
	ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
	defer cancel()
	start := time.Now()
	if o.put {
		s.value[0]++ // versions differ; only the size matters
		ts, err := s.cli.Put(ctx, o.keys[0], s.value)
		s.spans.span(spanPut, start, time.Now(), 0)
		if err == nil {
			s.chk.put(o.keys[0], ts)
		}
		return err
	}
	kvs, err := s.cli.ROT(ctx, o.keys)
	s.spans.span(spanROT, start, time.Now(), 0)
	if err == nil {
		s.chk.rot(o.keys, kvs)
	}
	return err
}

// sample is one operation's latency in microseconds (+Inf when it failed)
// and when it was due (open loop) or sent (closed loop), as an offset from
// the start of its slice.
type sample struct {
	at time.Duration
	us float64
}

// phaseStats collects the samples of one slice of a load.
type phaseStats struct {
	mu        sync.Mutex
	rot, put  []sample
	genLag    []float64 // open loop: send time - due time, µs
	wait      []float64 // open loop: idle session acquired - due time, µs
	attempted int
	failed    int
	start     time.Time
}

// progress counts every op the load generator issued in this process, so a
// parent can charge a crashed run's operations as failed.
var progress atomic.Int64

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func (ps *phaseStats) record(o op, at, lat time.Duration, err error) {
	v := us(lat)
	if err != nil {
		v = math.Inf(1)
	}
	ps.mu.Lock()
	if o.put {
		ps.put = append(ps.put, sample{at, v})
	} else {
		ps.rot = append(ps.rot, sample{at, v})
	}
	ps.attempted++
	if err != nil {
		ps.failed++
	}
	ps.mu.Unlock()
}

// schedule is the open loop's arrival offsets over d: a Poisson process of
// the given rate, a pure function of seed.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := rng.ExpFloat64() / rate; t < d.Seconds(); t += rng.ExpFloat64() / rate {
		out = append(out, time.Duration(t*1e9))
	}
	return out
}

// openOps draws n operations in arrival order from one generator, copying
// the generator's reused key slice.
func openOps(gen *workload.Gen, n int) []op {
	ops := make([]op, n)
	for i := range ops {
		o := gen.Next()
		ops[i] = op{put: o.Kind == workload.OpPut, keys: append([]string(nil), o.Keys...)}
	}
	return ops
}

// runOpen offers ops[i] at start+offs[i] (start is now), each to whichever
// session is idle, and waits for every op to finish. Latency runs from the
// due time, so a stall also charges the requests queued behind it.
func runOpen(sessions []*session, offs []time.Duration, ops []op, ps *phaseStats) {
	type job struct {
		op       op
		due, got time.Time
	}
	idle := make(chan *session, len(sessions))
	work := make(map[*session]chan job, len(sessions))
	var wg sync.WaitGroup
	for _, s := range sessions {
		ch := make(chan job, 1)
		work[s] = ch
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range ch {
				sent := time.Now()
				progress.Add(1)
				err := s.do(j.op)
				end := time.Now()
				ps.mu.Lock()
				ps.genLag = append(ps.genLag, us(sent.Sub(j.due)))
				ps.wait = append(ps.wait, us(j.got.Sub(j.due)))
				ps.mu.Unlock()
				ps.record(j.op, j.due.Sub(ps.start), end.Sub(j.due), err)
				idle <- s
			}
		}()
		idle <- s
	}
	ps.start = time.Now()
	for i, off := range offs {
		due := ps.start.Add(off)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		s := <-idle
		work[s] <- job{op: ops[i], due: due, got: time.Now()}
	}
	for _, ch := range work {
		close(ch)
	}
	wg.Wait()
}

// runClosed keeps every session busy for d: each sends its next op as soon
// as the previous one returns.
func runClosed(sessions []*session, d time.Duration, ps *phaseStats) {
	ps.start = time.Now()
	deadline := ps.start.Add(d)
	var wg sync.WaitGroup
	for _, s := range sessions {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				g := s.gen.Next()
				o := op{put: g.Kind == workload.OpPut, keys: g.Keys}
				start := time.Now()
				progress.Add(1)
				err := s.do(o)
				end := time.Now()
				ps.record(o, start.Sub(ps.start), end.Sub(start), err)
			}
		}()
	}
	wg.Wait()
}
