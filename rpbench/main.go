// Command rpbench is the end-to-end benchmark of randprivd. One process
// starts the real server in-process behind a loopback listener, sends a
// seeded workload over HTTP, checks every response byte for byte, and
// prints the metrics as one JSON object on the last line of its output:
//
//	rpbench --workload assess_stream --seed 1 --seconds 20 --trace 0
//
// With --trace 1 it also replays ops through the layers' public
// functions with decorators around each layer, and prints per-layer
// self times and whether each prediction in README.md held. See
// README.md for the workloads, the metrics and the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

var workloads = []string{"assess_stream", "sweep_grid"}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output, in the benchmark contract's
// shape.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "workload to run: assess_stream or sweep_grid")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 20, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 adds the traced replay and prints the per-layer metrics")
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "rpbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	dir, err := filepath.Abs(filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", *workload, os.Getpid())))
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	res, err := run(os.Stdout, *workload, *seed, *seconds, *trace == 1, dir)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// expected computes, before anything is timed, the body each distinct
// input must produce: the replay without decorators for assessments, the
// library's sweep executor for sweeps. For sweeps it also checks a
// quarter of the grid points against the standalone assessment of that
// point.
func expected(workload string, in *inputs, rp *replayer) ([][]byte, error) {
	want := make([][]byte, len(in.ops))
	for i, op := range in.ops {
		var err error
		if workload == "sweep_grid" {
			want[i], err = sweepExpected(op.up, op.spec, rp.ws)
			if err == nil {
				err = checkSweepPoints(rp, op, want[i], i)
			}
		} else {
			want[i], err = rp.assess(nil, op.up.path, op.up.digest, len(op.up.body), op.params)
		}
		if err != nil {
			return nil, fmt.Errorf("expected body of input %d: %w", i, err)
		}
	}
	return want, nil
}

// checkSweepPoints verifies that the points of a sweep body at positions
// congruent to k mod 4 equal the standalone assessment of that point
// (minus its trailing newline). Consecutive specs check different
// quarters, so the cycle covers every grid position.
func checkSweepPoints(rp *replayer, op opInput, body []byte, k int) error {
	var res struct {
		Points []struct {
			Params json.RawMessage `json:"params"`
			Report json.RawMessage `json:"report"`
		} `json:"points"`
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return err
	}
	plan, err := compileSweep(op.spec)
	if err != nil {
		return err
	}
	if len(plan.Points) != len(res.Points) {
		return fmt.Errorf("sweep body has %d points, plan %d", len(res.Points), len(plan.Points))
	}
	for i, pt := range plan.Points {
		if i%4 != k%4 {
			continue
		}
		alone, err := rp.assess(nil, op.up.path, op.up.digest, len(op.up.body), pt.Params)
		if err != nil {
			return err
		}
		if string(alone[:len(alone)-1]) != string(res.Points[i].Report) {
			return fmt.Errorf("sweep point %d differs from its standalone assessment", i)
		}
	}
	return nil
}

func run(out io.Writer, workload string, seed int64, seconds int, traced bool, dir string) (*result, error) {
	known := false
	for _, w := range workloads {
		known = known || w == workload
	}
	if !known {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloads)
	}
	in, err := genInputs(workload, seed, filepath.Join(dir, "inputs"))
	if err != nil {
		return nil, err
	}
	rp, err := newReplayer(filepath.Join(dir, "expected"))
	if err != nil {
		return nil, err
	}
	want, err := expected(workload, in, rp)
	rp.close()
	if err != nil {
		return nil, err
	}
	runtime.GC()

	run, err := runE2E(workload, filepath.Join(dir, "e2e"), in, want, seconds)
	if err != nil {
		return nil, err
	}
	gate(workload, run)
	lat := run.latencies()
	info := machineInfo{
		Workload: workload, Seed: seed, Trace: traced,
		Nproc: nproc(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPUModel: cpuModel(), GoVersion: runtime.Version(),
		StealPct: run.win.stealPct, Samples: len(lat),
	}
	line, err := json.Marshal(info)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "machine: %s\n", line)
	for _, c := range run.checks {
		fmt.Fprintf(out, "gate failed: %s\n", c)
	}
	for _, l := range run.logs {
		fmt.Fprintf(out, "server log: %s\n", l)
	}

	res := &result{Attempted: len(run.ops), Failed: run.failedOps(), Metrics: map[string]metric{}}
	if !traced {
		res.Metrics["setup_s"] = metric{slices.Min(run.setup), "s"}
		res.Metrics["p50_ms"] = metric{median(lat), "ms"}
		res.Metrics["cpu_ms_per_op"] = metric{ms(run.win.cpu) / float64(max(len(lat), 1)), "ms"}
		res.Metrics["peak_rss_mb"] = metric{run.win.rssMB, "MB"}
	} else {
		failed, err := traceRun(out, workload, in, run, want, filepath.Join(dir, "replay"), res.Metrics)
		if err != nil {
			return nil, err
		}
		res.Failed += failed
	}
	res.Correct = res.Failed == 0 && len(lat) > 0
	return res, nil
}

// gate checks the server's own cache counters against the workload's
// design: one miss per assessment (per grid point for sweeps) and no
// hits, since the ops cycle through more distinct keys than the LRU
// holds. A mismatch counts as a failed op.
func gate(workload string, run *e2eRun) {
	st := run.status
	lookups := uint64(len(run.ops))
	if workload == "sweep_grid" {
		lookups *= 16
	}
	if st.CacheHits != 0 || st.CacheMisses != lookups {
		run.checks = append(run.checks, fmt.Sprintf("cache counters: %d hits, %d misses, want 0 and %d", st.CacheHits, st.CacheMisses, lookups))
	}
}
