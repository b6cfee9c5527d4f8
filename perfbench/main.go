// Command perfbench is the repository's benchmark. It drives one workload
// (or all of them) through a light open loop, a loaded open loop and a
// closed loop on one cluster, checks every output, and prints each metric
// with its unit and sample count; the last line of standard output is one
// JSON object.
//
//	bash perfbench/run.sh --workload contrarian-2dc --seed 1 --seconds 28 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh --contract > BENCHMARK.json
//
// --trace 0 prints the end-to-end metrics; --trace 1 makes a run in two
// halves, one untraced and one traced, and prints the per-layer metrics.
// spec.json describes every workload and metric; BENCHMARK.json is its
// projection onto the benchmark contract's fixed keys.
//
// Each run happens in a child process, so a panic or hang in the system
// under test becomes a failed run with its seed and stderr tail instead of
// aborting the benchmark.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "workload name from spec.json, or all")
		seed         = flag.Int64("seed", 1, "workload seed")
		seconds      = flag.Int("seconds", 0, "measured seconds per run (0 = spec.json run_seconds)")
		trace        = flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
		outDir       = flag.String("out", ".bench_build/perfbench", "directory for WAL data, profiles, spans and crash records")
		child        = flag.String("child", "", "internal: run one workload in this process (untraced|traced)")
		setups       = flag.Int("setups", 5, "internal: set-ups timed for setup_s")
		contract     = flag.Bool("contract", false, "print BENCHMARK.json and exit")
	)
	flag.Parse()
	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *contract {
		b, err := spec.contract()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("--trace must be 0 or 1"))
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fatal(err)
	}
	if *child != "" {
		w, err := spec.workload(*workloadName)
		if err != nil {
			fatal(err)
		}
		os.Exit(childMain(runOpts{
			w: w, seed: *seed, measure: time.Duration(*seconds) * time.Second,
			setups: *setups, traced: *child == "traced", outDir: *outDir,
		}))
	}
	names := []string{*workloadName}
	if *workloadName == "all" {
		names = names[:0]
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	p := &parent{spec: spec, seed: *seed, seconds: *seconds, outDir: *outDir}
	os.Exit(p.run(names, *trace == 1))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(2)
}

// childMain runs one workload in this process and reports to the parent on
// standard output: progress lines while it runs, then the result.
func childMain(o runOpts) int {
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				fmt.Printf("progress %d\n", progress.Load())
			}
		}
	}()
	res, err := runChild(o)
	close(stop)
	<-done
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for k, v := range res.Metrics {
		res.Metrics[k] = finite(v)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Printf("result %s\n", b)
	return 0
}
