package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/workload"
)

// childResult is what one child process reports to its parent.
type childResult struct {
	Metrics    map[string]float64 `json:"metrics"`
	Samples    map[string]int     `json:"samples"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	Violations []string           `json:"violations"`
}

// runOpts selects what one child run does.
type runOpts struct {
	w       workloadSpec
	seed    int64
	measure time.Duration // the three phases together
	setups  int           // set-ups timed for setup_s; the last one is used
	traced  bool
	outDir  string
}

// warmIn is the unmeasured open loop at the low rate that precedes the low
// phase, so the first measured ops do not pay for cold caches.
const warmIn = time.Second

// sampleEvery is the period of the gauge sampler.
const sampleEvery = 100 * time.Millisecond

// Random streams of a run; each derives its seed from --seed.
const (
	streamWarm = iota + 1
	streamLow
	streamHigh
	streamSession
)

// seedFor is the seed of item i (a slice, a session) of a stream.
func seedFor(seed int64, stream, i int) int64 {
	return seed*1_000_000 + int64(stream)*10_000 + int64(i)
}

func setUp(o runOpts, dataDir string, t tracing) (*deployment, []*session, error) {
	dep, err := startDeployment(o.w, o.seed, dataDir, t)
	if err != nil {
		return nil, nil, err
	}
	ks := workload.BuildKeySpace(workloadConfig(o.w), dep.ring)
	sessions := make([]*session, o.w.Sessions)
	for i := range sessions {
		dc := i % o.w.DCs
		cli, err := dep.open(dc, uint16(1+i%tenants))
		if err != nil {
			dep.close()
			return nil, nil, fmt.Errorf("session %d: %w", i, err)
		}
		gen := workload.NewGen(workloadConfig(o.w), ks, seedFor(o.seed, streamSession, i))
		sessions[i] = newSession(cli, o.w.ValueSize, gen)
		sessions[i].spans = t.tr
	}
	return dep, sessions, nil
}

// sampler scrapes the registry and the runtime every sampleEvery and keeps
// what only a sample can give: gauge peaks and gauge means.
type sampler struct {
	mu    sync.Mutex
	peak  map[string]float64
	sum   map[string]float64
	n     int
	stop  chan struct{}
	done  chan struct{}
	errAt error
}

// peakGauges are summed over their series at each sample.
var peakGauges = []string{"kv_transport_send_queue_frames", "kv_transport_open_conns", "kv_admission_depth", "kv_admission_parked"}

// meanGauges are averaged over their series at each sample.
var meanGauges = []string{"kv_visibility_lag_seconds", "kv_replication_lag_seconds"}

func startSampler(reg *metrics.Registry) *sampler {
	s := &sampler{peak: map[string]float64{}, sum: map[string]float64{}, stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(sampleEvery)
		defer tick.Stop()
		for {
			s.sample(reg)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) sample(reg *metrics.Registry) {
	sc, err := scrapeRegistry(reg)
	g := float64(goroutines())
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil {
		s.errAt = err
		return
	}
	for _, name := range peakGauges {
		s.peak[name] = max(s.peak[name], sc.sum(name, nil))
	}
	s.peak["goroutines"] = max(s.peak["goroutines"], g)
	for _, name := range meanGauges {
		vs := sc.values(name, nil)
		var t float64
		for _, v := range vs {
			t += v
		}
		s.sum[name] += ratio(t, float64(len(vs)))
	}
	s.n++
}

func (s *sampler) finish() error {
	close(s.stop)
	<-s.done
	return s.errAt
}

// phase is one of the three loads. A run interleaves them in slices (low,
// high, peak, then a short settle) so that slow drifts of the machine — CPU
// steal, disk contention, heap growth — reach all three alike; each
// end-to-end figure is a quantile over the phase's windows (see minWindow).
type phase struct {
	name   string
	slices []*phaseStats
	cpu    time.Duration // process CPU used during the slices
	// sliceCPU is each slice's process CPU per completed operation, in
	// microseconds.
	sliceCPU []float64
	wall     time.Duration
	open     *workload.Gen // the open loop's operations; nil for peak
	rate     float64
	stream   int
	spans    []interval // traced runs: when each slice ran
}

// interval is a span of unix nanoseconds.
type interval struct{ from, to int64 }

// settle is the pause after each peak slice, so that its backlog — queued
// frames, a GC cycle started at saturation, CC-LO's reader records (kept
// 500 ms) — drains before the next low slice starts.
const settle = time.Second

// series returns the phase's put or ROT samples, one list per slice.
func (p *phase) series(put bool) [][]sample {
	out := make([][]sample, len(p.slices))
	for i, ps := range p.slices {
		out[i] = ps.rot
		if put {
			out[i] = ps.put
		}
	}
	return out
}

func (p *phase) counts() (attempted, failed int) {
	for _, ps := range p.slices {
		attempted += ps.attempted
		failed += ps.failed
	}
	return attempted, failed
}

// runChild sets the workload up, drives the warm-in and the interleaved
// phases, checks the outputs and computes every metric.
func runChild(o runOpts) (*childResult, error) {
	res := &childResult{Metrics: map[string]float64{}, Samples: map[string]int{}}
	var t tracing
	if o.traced {
		t = tracing{slow: metrics.NewSlowRing(1<<16, 0), tr: newTracer()}
	}
	var (
		setupTimes []float64
		dep        *deployment
		sessions   []*session
	)
	for i := 0; i < o.setups; i++ {
		dataDir := filepath.Join(o.outDir, fmt.Sprintf("data-%d-%d", os.Getpid(), i))
		start := time.Now()
		d, ss, err := setUp(o, dataDir, t)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		if i < o.setups-1 {
			d.close()
			// The next set-up, and the run's memory peak, start clean.
			debug.FreeOSMemory()
			continue
		}
		dep, sessions = d, ss
	}
	defer dep.close()
	res.Metrics["setup_s"] = median(setupTimes)
	res.Samples["setup_s"] = len(setupTimes)

	if o.traced {
		f, err := os.Create(filepath.Join(o.outDir, "cpu-"+o.w.Name+".pprof"))
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
		defer pprof.StopCPUProfile()
	}

	cfg := workloadConfig(o.w)
	ks := workload.BuildKeySpace(cfg, dep.ring)
	openPhase := func(name string, rate float64, stream int) *phase {
		gen := workload.NewGen(cfg, ks, seedFor(o.seed, stream, 0))
		return &phase{name: name, open: gen, rate: rate, stream: stream}
	}
	openSlice := func(p *phase, slice int) *phaseStats {
		offs := schedule(seedFor(o.seed, p.stream, 1+slice), p.rate, sliceLen)
		ps := &phaseStats{}
		runOpen(sessions, offs, openOps(p.open, len(offs)), ps)
		return ps
	}
	warm := openSlice(openPhase("warm", o.w.LowRate, streamWarm), 0)

	low := openPhase("low", o.w.LowRate, streamLow)
	high := openPhase("high", o.w.HighRate, streamHigh)
	peak := &phase{name: "peak"}
	phases := []*phase{low, high, peak}
	var slow []metrics.SlowOp

	// Write back what set-up and earlier runs left dirty, so the measured
	// slices do not pay for it.
	syscall.Sync()
	smp := startSampler(dep.reg)
	s0, err := scrapeRegistry(dep.reg)
	if err != nil {
		return nil, err
	}
	rt0 := readRuntime()
	for c := 0; c < int(o.measure/(2*sliceLen+peakSliceLen)); c++ {
		for _, p := range phases {
			cpu0, wall0 := processCPU(), time.Now()
			var ps *phaseStats
			if p.open != nil {
				ps = openSlice(p, c)
			} else {
				ps = &phaseStats{}
				runClosed(sessions, peakSliceLen, ps)
			}
			cpu := processCPU() - cpu0
			p.cpu += cpu
			p.sliceCPU = append(p.sliceCPU, ratio(us(cpu), float64(ps.attempted-ps.failed)))
			p.wall += time.Since(wall0)
			p.slices = append(p.slices, ps)
			if o.traced && p == high {
				iv := interval{wall0.UnixNano(), time.Now().UnixNano()}
				p.spans = append(p.spans, iv)
				for _, op := range t.slow.Snapshot() {
					if op.Start >= iv.from && op.Start < iv.to {
						slow = append(slow, op)
					}
				}
			}
		}
		time.Sleep(settle)
	}
	rt1 := readRuntime()
	s1, err := scrapeRegistry(dep.reg)
	if err != nil {
		return nil, err
	}
	if err := smp.finish(); err != nil {
		return nil, err
	}
	res.Metrics["rss_peak_mb"] = rssPeakMB()
	res.Samples["rss_peak_mb"] = 1

	// Output checks: per-session results, then convergence across DCs.
	for _, s := range sessions {
		res.Violations = append(res.Violations, s.chk.errors()...)
	}
	readers := make([]caller, o.w.DCs)
	for dc := range readers {
		if readers[dc], err = dep.open(dc, 1); err != nil {
			return nil, fmt.Errorf("convergence reader: %w", err)
		}
	}
	res.Violations = append(res.Violations, checkConvergence(sessions, readers, o.seed)...)

	res.Attempted, res.Failed = warm.attempted, warm.failed
	for _, p := range phases {
		a, f := p.counts()
		res.Attempted += a
		res.Failed += f
	}
	latencyMetrics(res, phases)
	layerMetrics(res, o.w, phases, s0, s1, rt0, rt1, smp)
	if o.traced {
		traceMetrics(res, t.tr, high.spans, slow)
		if err := t.tr.write(filepath.Join(o.outDir, "spans-"+o.w.Name+".tsv")); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// latencyMetrics fills the end-to-end latency, throughput and CPU metrics
// and the harness's own open-loop timings.
func latencyMetrics(res *childResult, phases []*phase) {
	m := res.Metrics
	var lags, waits []float64
	for _, p := range phases {
		for _, ps := range p.slices {
			lags = append(lags, ps.genLag...)
			waits = append(waits, ps.wait...)
		}
		for _, op := range []string{"rot", "put"} {
			slices := p.series(op == "put")
			var all []sample
			for _, s := range slices {
				all = append(all, s...)
			}
			perSlice := len(all) / max(len(slices), 1)
			key := p.name + "." + op
			if p.open == nil {
				name := key + "_p99_us"
				m[name] = median(windowed(slices, peakSliceLen, 99))
				res.Samples[name] = len(all)
				continue
			}
			// A percentile wants ten samples beyond it in a window.
			for q, need := range map[float64]int{50: 20, 90: 100} {
				name := fmt.Sprintf("%s_p%.0f_us", key, q)
				m[name] = median(windowed(slices, windowFor(perSlice, need), q))
				res.Samples[name] = len(all)
			}
			sorted := values(all)
			p99 := percentile(sorted, 99)
			m["harness."+key+"_p99_us"] = p99
			m["harness."+key+"_tail_n"] = float64(beyond(sorted, p99))
			tp, tv, tn := tail(sorted)
			name := fmt.Sprintf("tail.%s_p%g_us", key, tp)
			m[name] = tv
			res.Samples[name] = tn
		}
	}
	m["harness.gen_lag_p99_us"] = percentile(sortedCopy(lags), 99)
	m["harness.session_wait_p90_us"] = percentile(sortedCopy(waits), 90)

	low, high, peak := phases[0], phases[1], phases[2]
	var done [][]sample
	for _, ps := range peak.slices {
		done = append(done, append(append([]sample(nil), ps.rot...), ps.put...))
	}
	m["peak_ops"] = windowedRate(done)
	res.Samples["peak_ops"] = len(peak.slices) * int(peakSliceLen/minWindow)
	// Per slice, then the median, like every other figure: a GC cycle of
	// the large TCP heap that lands in one slice does not move it.
	a, f := high.counts()
	m["high.cpu_us_per_op"] = median(high.sliceCPU)
	res.Samples["high.cpu_us_per_op"] = a - f
	m["runtime.low_cpu_cores"] = ratio(low.cpu.Seconds(), low.wall.Seconds())
}

// layerMetrics derives the per-layer metrics from the registry scrapes
// taken before and after the three phases, the sampler, and the runtime.
func layerMetrics(res *childResult, w workloadSpec, phases []*phase, a, b scrape, first, last rtSnap, smp *sampler) {
	m := res.Metrics
	var ops, puts, attempted, failed float64
	for _, p := range phases {
		a, f := p.counts()
		ops += float64(a - f)
		attempted += float64(a)
		failed += float64(f)
		for _, s := range p.series(true) {
			puts += float64(countOK(s))
		}
	}
	m["harness.failed_frac"] = ratio(failed, attempted)
	d := func(name string, sel match) float64 { return delta(a, b, name, sel) }

	m["session.busy_retries_per_op"] = ratio(d("kv_admission_client_retries_total", nil), ops)
	m["session.fence_retries"] = d("kv_cclo_fence_retries_total", nil)

	flushes := d("kv_transport_flushes_total", nil)
	msgs := d("kv_transport_msgs_sent_total", nil)
	m["transport.msgs_per_op"] = ratio(msgs, ops)
	m["transport.bytes_per_op"] = ratio(d("kv_transport_bytes_sent_total", nil), ops)
	m["transport.frames_per_flush"] = ratio(flushes+d("kv_transport_frames_coalesced_total", nil), flushes)
	m["transport.flush_delay_p99_us"] = histQuantile(a, b, "kv_transport_flush_delay_seconds", nil, 0.99) * 1e6
	m["transport.spill_frac"] = ratio(d("kv_transport_handler_overflow_total", nil), msgs)
	m["transport.dropped_per_op"] = ratio(d("kv_transport_dropped_total", nil), ops)

	smp.mu.Lock()
	m["transport.send_queue_peak"] = smp.peak["kv_transport_send_queue_frames"]
	m["transport.open_conns_peak"] = smp.peak["kv_transport_open_conns"]
	m["admission.depth_peak"] = smp.peak["kv_admission_depth"]
	m["admission.parked_peak"] = smp.peak["kv_admission_parked"]
	m["runtime.goroutines_peak"] = smp.peak["goroutines"]
	m["core.visibility_lag_ms"] = ratio(smp.sum["kv_visibility_lag_seconds"], float64(smp.n)) * 1e3
	m["core.replication_lag_ms"] = ratio(smp.sum["kv_replication_lag_seconds"], float64(smp.n)) * 1e3
	smp.mu.Unlock()

	shed := d("kv_admission_shed_total", nil)
	m["admission.shed_frac"] = ratio(shed, shed+d("kv_admission_admitted_total", nil))

	fam := "cclo"
	prefix := "cclo."
	other := "core."
	if w.Protocol != "cclo" {
		fam, prefix, other = w.Protocol, "core.", "cclo."
	}
	for _, op := range []string{"rot", "put", "rep"} {
		sels := []match{{"family": fam, "op": op}}
		if op == "rot" {
			// A ROT leg that reads one key is recorded as a get.
			sels = append(sels, match{"family": fam, "op": "get"})
		}
		var sum, n float64
		for _, sel := range sels {
			sum += d("kv_server_op_seconds_sum", sel)
			n += d("kv_server_op_seconds_count", sel)
		}
		m[prefix+op+"_handler_mean_us"] = ratio(sum, n) * 1e6
		m[other+op+"_handler_mean_us"] = 0
	}
	checks := d("kv_cclo_readers_checks_total", nil)
	m["cclo.checks_per_put"] = ratio(checks, puts)
	m["cclo.keys_per_check"] = ratio(d("kv_cclo_keys_checked_total", nil), checks)
	m["cclo.partitions_per_check"] = ratio(d("kv_cclo_partitions_asked_total", nil), checks)
	ids := d("kv_cclo_rot_ids_total", nil)
	m["cclo.ids_per_check"] = ratio(ids, checks)
	m["cclo.ids_useful_frac"] = ratio(d("kv_cclo_rot_ids_distinct_total", nil), ids)
	m["cclo.check_bytes_per_put"] = ratio(d("kv_cclo_check_bytes_total", nil), puts)
	m["cclo.replication_checks_per_rep"] = ratio(d("kv_cclo_replication_checks_total", nil), d("kv_server_op_seconds_count", match{"family": "cclo", "op": "rep"}))

	m["store.arena_bytes_per_put"] = ratio(d("kv_store_arena_bytes", nil), puts)
	m["store.slab_bytes_per_put"] = ratio(d("kv_store_slab_bytes", nil), puts)
	m["store.keys"] = b.sum("kv_store_keys", nil)

	appends := d("kv_wal_appends_total", nil)
	m["wal.appends_per_fsync"] = ratio(appends, d("kv_wal_fsyncs_total", nil))
	m["wal.fsync_mean_us"] = histMean(a, b, "kv_wal_fsync_delay_seconds", nil) * 1e6
	m["wal.appends_per_put"] = ratio(appends, puts)
	m["wal.bytes_per_user_byte"] = ratio(d("kv_wal_append_bytes_total", nil), appends*float64(w.ValueSize))

	m["runtime.allocs_per_op"] = ratio(float64(last.allocObjs-first.allocObjs), ops)
	m["runtime.alloc_bytes_per_op"] = ratio(float64(last.allocBytes-first.allocBytes), ops)
	m["runtime.gc_cpu_frac"] = ratio(last.gcCPU-first.gcCPU, last.totalCPU-first.totalCPU)
	m["runtime.sched_latency_p99_us"] = schedP99(first, last) * 1e6
}

func countOK(s []sample) int {
	n := 0
	for _, x := range s {
		if !math.IsInf(x.us, 1) {
			n++
		}
	}
	return n
}

// handlerMsgs are the server-side messages whose handlers' self time the
// traced TCP assembly reports, by family.
var handlerMsgs = map[string][]string{
	"contrarian": {"PutReq", "RotCoordReq", "RotFwd", "RepBatch", "VVReport", "GSSBcast"},
	"cclo":       {"LoPutReq", "LoRotReq", "OldReadersReq", "DepCheckReq", "LoRepUpdate"},
}

// traceMetrics reads the traced run's spans and slow-op records from the
// high phase's slices.
func traceMetrics(res *childResult, tr *tracer, high []interval, slow []metrics.SlowOp) {
	m := res.Metrics
	m["trace.session.put_mean_us"] = tr.meanIn(spanPut, high, false)
	m["trace.session.rot_mean_us"] = tr.meanIn(spanROT, high, false)
	m["trace.wal.append_us"] = tr.meanIn(spanWALAppend, high, false)
	for _, msgs := range handlerMsgs {
		for _, msg := range msgs {
			m["trace.handler."+msg+"_self_us"] = tr.meanIn("handler."+msg, high, true)
		}
	}
	type acc struct{ n, total, queue, fsync float64 }
	byOp := map[string]*acc{"put": {}, "rot": {}, "rep": {}}
	for _, op := range slow {
		name := op.Op
		if name == "get" {
			name = "rot" // a ROT leg that reads one key
		}
		if a := byOp[name]; a != nil {
			a.n++
			a.total += us(op.Total)
			a.queue += us(op.Queue)
			a.fsync += us(op.Fsync)
		}
	}
	for op, a := range byOp {
		m["trace.handler."+op+"_total_us"] = ratio(a.total, a.n)
		m["trace.handler."+op+"_queue_us"] = ratio(a.queue, a.n)
		m["trace.handler."+op+"_fsync_us"] = ratio(a.fsync, a.n)
	}
}
