package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// budget is how long the runs of one workload may take, retries included;
// an invocation for one workload must end within 180 s.
const budget = 170 * time.Second

// childLimit is how long a child measuring seconds may run before it counts
// as hung: its cycles take 5/4 of the measured seconds (the pause after each
// peak slice) and the set-ups, warm-in and checks take a few seconds more.
func childLimit(seconds int) time.Duration {
	return time.Duration(seconds)*time.Second*3/2 + 30*time.Second
}

type parent struct {
	spec    *benchSpec
	seed    int64
	seconds int
	outDir  string
	start   time.Time // of the current workload's runs
}

// outcome is one workload's result as the last line reports it.
type outcome struct {
	correct           bool
	attempted, failed int
	metrics           map[string]float64
}

func (p *parent) run(names []string, traced bool) int {
	var outs []outcome
	for _, name := range names {
		w, err := p.spec.workload(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 2
		}
		p.start = time.Now()
		out, err := p.runWorkload(w, traced)
		if err != nil {
			// The run is lost, not the benchmark: its issued operations
			// count as failed and the other workloads still run.
			fmt.Fprintf(os.Stderr, "perfbench: %s (seed %d): %v\n", name, p.seed, err)
			out.correct = false
		}
		outs = append(outs, out)
	}
	final := outs[0]
	if len(outs) > 1 {
		final = outcome{correct: true, metrics: map[string]float64{}}
		for i, o := range outs {
			final.correct = final.correct && o.correct
			final.attempted += o.attempted
			final.failed += o.failed
			for k, v := range o.metrics {
				final.metrics[names[i]+"/"+k] = v
			}
		}
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for k, v := range final.metrics {
		ms[k] = value{v, p.spec.unit(k[strings.LastIndexByte(k, '/')+1:])}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{final.correct, final.attempted, final.failed, ms})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(b))
	if !final.correct {
		return 1
	}
	return 0
}

// runWorkload makes one run of w: untraced with five timed set-ups, or
// (traced) an untraced half for the per-layer metrics and a traced half
// for the trace.* metrics. When a run is lost, out still counts the
// operations its children issued, all as failed.
func (p *parent) runWorkload(w workloadSpec, traced bool) (out outcome, err error) {
	var (
		names []metricSpec
		res   *childResult
	)
	if !traced {
		res, out.attempted, out.failed, err = p.runChildren(w, "untraced", p.seconds, 5)
		if err != nil {
			return out, err
		}
		names = p.spec.EndToEnd
	} else {
		half := max(p.seconds/2, 3)
		r, att, fail, err := p.runChildren(w, "untraced", half, 1)
		out.attempted, out.failed = att, fail
		if err != nil {
			return out, err
		}
		tr, tatt, tfail, err := p.runChildren(w, "traced", half, 1)
		out.attempted, out.failed = out.attempted+tatt, out.failed+tfail
		if err != nil {
			return out, err
		}
		for k, v := range tr.Metrics {
			if strings.HasPrefix(k, "trace.") {
				r.Metrics[k] = v
			}
		}
		r.Metrics["trace.overhead_frac"] = ratio(tr.Metrics["high.rot_p50_us"], r.Metrics["high.rot_p50_us"]) - 1
		r.Violations = append(r.Violations, tr.Violations...)
		res, names = r, p.spec.PerLayer
		r.Metrics["harness.failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	}
	out.correct = len(res.Violations) == 0
	out.metrics = map[string]float64{}
	fmt.Printf("== %s  seed %d  %ds  %s\n", w.Name, p.seed, p.seconds, map[bool]string{false: "end-to-end", true: "per-layer (traced run)"}[traced])
	for _, m := range names {
		v, ok := res.Metrics[m.Name]
		if !ok {
			return out, fmt.Errorf("metric %s was not measured", m.Name)
		}
		out.metrics[m.Name] = v
		n := ""
		if c, ok := res.Samples[m.Name]; ok {
			n = fmt.Sprintf("n=%d", c)
		}
		fmt.Printf("%-40s %14.4f %-6s %s\n", m.Name, v, m.Unit, n)
	}
	if traced {
		// Handler self times of the other family's messages: measured
		// when this workload runs that family over TCP.
		listed := map[string]bool{}
		for _, m := range names {
			listed[m.Name] = true
		}
		var extra []string
		for k := range res.Metrics {
			if strings.HasPrefix(k, "trace.handler.") && !listed[k] {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		for _, k := range extra {
			if v := res.Metrics[k]; v != 0 {
				fmt.Printf("%-40s %14.4f %-6s (not in BENCHMARK.json)\n", k, v, "us")
			}
		}
	}
	if !traced {
		// The closed loop's p99s and the open loops' p90s are end-to-end
		// figures too, but too unsteady to gate; spec.json lists them with
		// the per-layer metrics.
		for _, m := range p.spec.PerLayer {
			phase, _, _ := strings.Cut(m.Name, ".")
			if v, ok := res.Metrics[m.Name]; ok && (phase == "low" || phase == "high" || phase == "peak") {
				fmt.Printf("%-40s %14.4f %-6s n=%d (ungated)\n", m.Name, v, m.Unit, res.Samples[m.Name])
			}
		}
		fmt.Printf("%-40s %14.4f %-6s n=%d (ungated)\n", "failed_frac", ratio(float64(out.failed), float64(out.attempted)), "frac", out.attempted)
		var tails []string
		for k := range res.Metrics {
			if strings.HasPrefix(k, "tail.") {
				tails = append(tails, k)
			}
		}
		sort.Strings(tails)
		for _, k := range tails {
			fmt.Printf("%-40s %14.4f %-6s %d beyond\n", k, res.Metrics[k], "us", res.Samples[k])
		}
	}
	// The open loop is valid only while the generator sends close to the
	// due times; otherwise its latencies measure the generator's delays.
	if lag, p90 := res.Metrics["harness.gen_lag_p99_us"], res.Metrics["high.rot_p90_us"]; lag > p90/2 {
		fmt.Printf("WARNING: harness.gen_lag_p99_us %.0f us is not well below high.rot_p90_us %.0f us\n", lag, p90)
	}
	fmt.Printf("attempted %d, failed %d\n", out.attempted, out.failed)
	for _, v := range res.Violations {
		fmt.Println("VIOLATION:", v)
	}
	return out, nil
}

// runChildren runs one child until it completes. A child that crashes,
// hangs or exits without a result is recorded with its seed and its stderr,
// every operation it issued counts as failed, and it is run
// again if a whole new attempt fits in the workload's budget. The counts
// are returned with the error too.
func (p *parent) runChildren(w workloadSpec, mode string, seconds, setups int) (*childResult, int, int, error) {
	var attempted, failed int
	limit := childLimit(seconds)
	for attempt := 1; ; attempt++ {
		res, issued, err := p.child(w, mode, seconds, setups, limit, attempt)
		if err == nil {
			return res, attempted + res.Attempted, failed + res.Failed, nil
		}
		attempted += issued
		failed += issued
		if attempt == 3 {
			return nil, attempted, failed, fmt.Errorf("%d attempts failed, the last: %w", attempt, err)
		}
		if budget-time.Since(p.start) < limit {
			return nil, attempted, failed, fmt.Errorf("no time left in the workload's %v budget to repeat the failed run: %w", budget, err)
		}
	}
}

func (p *parent) child(w workloadSpec, mode string, seconds, setups int, limit time.Duration, attempt int) (*childResult, int, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, 0, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self,
		"--child", mode, "--workload", w.Name, "--seed", strconv.FormatInt(p.seed, 10),
		"--seconds", strconv.Itoa(seconds), "--setups", strconv.Itoa(setups), "--out", p.outDir)
	// A hung child is sent SIGQUIT, so its goroutine stacks reach the
	// crash record; one that ignores it is killed 5 s later.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGQUIT) }
	cmd.WaitDelay = 5 * time.Second
	stderr := &headTail{max: 32 << 10}
	cmd.Stderr = stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	var (
		res    *childResult
		issued int
		perr   error
	)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(nil, 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "progress "); ok {
			issued, _ = strconv.Atoi(rest)
		} else if rest, ok := strings.CutPrefix(line, "result "); ok {
			res = &childResult{}
			perr = json.Unmarshal([]byte(rest), res)
		}
	}
	werr := cmd.Wait()
	// A child that died leaves its WAL directories behind.
	dirs, _ := filepath.Glob(filepath.Join(p.outDir, fmt.Sprintf("data-%d-*", cmd.Process.Pid)))
	for _, d := range dirs {
		os.RemoveAll(d)
	}
	switch {
	case werr == nil && res != nil && perr == nil:
		return res, issued, nil
	case werr == nil && perr != nil:
		werr = perr
	case werr == nil:
		werr = errors.New("exited without a result")
	case ctx.Err() != nil:
		werr = fmt.Errorf("timed out after %v", limit)
	}
	p.recordCrash(w, mode, attempt, issued, werr, stderr.String())
	return nil, issued, werr
}

// recordCrash reports a failed child on stderr, with the first 4 KiB of its
// stderr, and appends it with the first and last 32 KiB of its stderr to
// crashes.log in the output directory.
func (p *parent) recordCrash(w workloadSpec, mode string, attempt, issued int, err error, stderr string) {
	head := fmt.Sprintf("%s workload=%s seed=%d mode=%s attempt=%d ops_failed=%d: %v\n",
		time.Now().UTC().Format(time.RFC3339), w.Name, p.seed, mode, attempt, issued, err)
	rec := head + "--- stderr ---\n" + stderr + "\n--- end ---\n"
	fmt.Fprint(os.Stderr, "perfbench: run failed: ", head, "--- stderr (start) ---\n", stderr[:min(len(stderr), 4096)], "\n--- end ---\n")
	f, ferr := os.OpenFile(filepath.Join(p.outDir, "crashes.log"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if ferr != nil {
		return
	}
	defer f.Close()
	f.WriteString(rec)
}

// headTail keeps the first and the last max bytes written to it: a panic
// or a goroutine dump starts with the failing or the main goroutine, and
// ends with whatever ran last.
type headTail struct {
	mu         sync.Mutex
	max        int
	head, tail []byte
	cut        bool // bytes were dropped between head and tail
}

func (t *headTail) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := len(p)
	if room := t.max - len(t.head); room > 0 {
		k := min(room, len(p))
		t.head = append(t.head, p[:k]...)
		p = p[k:]
	}
	t.tail = append(t.tail, p...)
	if over := len(t.tail) - t.max; over > 0 {
		t.tail = append(t.tail[:0], t.tail[over:]...)
		t.cut = true
	}
	return n, nil
}

func (t *headTail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cut {
		return string(t.head) + "\n[...]\n" + string(t.tail)
	}
	return string(t.head) + string(t.tail)
}
