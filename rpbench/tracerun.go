package main

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"randpriv/internal/sweep"
)

// replayOps is how many distinct inputs the traced run replays.
const replayOps = 16

// layerMetrics are the per-layer self-time metrics, in ms per replayed
// op, keyed by the span name they aggregate.
var layerMetrics = []struct{ metric, span string }{
	{"dataset.parse_ms", "dataset.parse"},
	{"dataset.encode_ms", "dataset.encode"},
	{"randomize.perturb_ms", "randomize.perturb"},
	{"recon.sketch_ms", "recon.sketch"},
	{"recon.solve_ms", "recon.solve"},
	{"recon.project_ms", "recon.project"},
	{"core.ndr_ms", "core.ndr"},
	{"core.score_ms", "core.score"},
	{"sweep.validate_ms", "sweep.validate"},
	{"sweep.group_ms", "sweep.group"},
	{"sweep.marshal_ms", "sweep.marshal"},
	{"cluster.put_ms", "cluster.put"},
	{"cluster.task_run_ms", "cluster.task_run"},
	{"cluster.protocol_ms", "cluster.protocol"},
}

// prediction is one row of the metric-to-layer table in README.md,
// written before anything was measured. kind says what is checked:
//
//	largest    the metric is the largest layer self time of the workload
//	registers  the metric is at least 1% of the replayed op (or, for the
//	           job timings, of the end-to-end p50)
//	small      the metric is below 10% of the replayed op
//	equals     the metric equals want exactly
type prediction struct {
	metric, workload, kind, moves string
}

var predictions = []prediction{
	{"dataset.parse_ms", "assess_stream", "largest", "p50_ms, cpu_ms_per_op"},
	{"dataset.parse_ms", "sweep_grid", "small", "~0"},
	{"dataset.csv_passes", "assess_stream", "equals", "p50_ms (sweep.PassesFor)"},
	{"dataset.csv_passes", "sweep_grid", "equals", "~0 (one scan)"},
	{"dataset.encode_ms", "assess_stream", "registers", "p50_ms"},
	{"randomize.perturb_ms", "assess_stream", "registers", "p50_ms"},
	{"recon.sketch_ms", "assess_stream", "registers", "p50_ms (minor)"},
	{"recon.solve_ms", "assess_stream", "registers", "p50_ms (minor)"},
	{"recon.project_ms", "assess_stream", "registers", "p50_ms (minor)"},
	{"core.ndr_ms", "assess_stream", "registers", "p50_ms"},
	{"core.score_ms", "assess_stream", "registers", "p50_ms"},
	{"sweep.validate_ms", "sweep_grid", "registers", "p50_ms, cpu_ms_per_op"},
	{"sweep.group_ms", "sweep_grid", "largest", "p50_ms, cpu_ms_per_op"},
	{"sweep.marshal_ms", "sweep_grid", "registers", "p50_ms"},
	{"sweep.passes", "sweep_grid", "equals", "p50_ms (Plan.PlannedPasses)"},
	{"jobs.submit_ms", "sweep_grid", "registers", "p50_ms"},
	{"jobs.run_ms", "sweep_grid", "registers", "p50_ms, e2e.p90_ms"},
	{"cluster.put_ms", "assess_stream", "registers", "nothing here (single-process servers)"},
	{"cluster.task_run_ms", "assess_stream", "registers", "nothing here (single-process servers)"},
	{"cluster.protocol_ms", "assess_stream", "registers", "nothing here (single-process servers)"},
	{"server.overhead_ms", "assess_stream", "registers", "p50_ms"},
	{"server.overhead_ms", "sweep_grid", "registers", "p50_ms"},
	{"server.cache_hit_ratio", "assess_stream", "equals", "p50_ms (no hits planned)"},
	{"server.cache_hit_ratio", "sweep_grid", "equals", "p50_ms (no hits planned)"},
}

// perLayerUnits lists every per-layer metric with its unit; a traced run
// prints all of them (0 where a layer is not on the workload's path).
var perLayerUnits = func() map[string]string {
	u := map[string]string{
		"dataset.parse_mb": "MB", "dataset.csv_passes": "count", "sweep.passes": "count",
		"jobs.submit_ms": "ms", "jobs.queue_wait_ms": "ms", "jobs.run_ms": "ms",
		"server.overhead_ms": "ms", "server.cache_hit_ratio": "ratio",
		"go.allocs_per_op": "count", "go.alloc_mb_per_op": "MB", "go.gc_cpu_ms_per_op": "ms",
		"host.steal_pct": "%", "bench.trace_overhead_pct": "%",
		"e2e.p90_ms": "ms", "e2e.ops_per_s": "1/s",
		"replay.op_ms": "ms",
	}
	for _, l := range layerMetrics {
		u[l.metric] = "ms"
	}
	return u
}()

// traceRun fills the per-layer metrics: the e2e-run ones from the run it
// is given, the rest from replaying up to replayOps distinct inputs with
// and without decorators. On assess_stream each op is also replayed as
// a delegated job through a cluster coordinator, the path a cluster
// deployment runs. Every replayed body must equal the HTTP body of the
// same input; each one that does not counts as a failed op.
func traceRun(out io.Writer, workload string, in *inputs, run *e2eRun, want [][]byte, dir string, m map[string]metric) (int, error) {
	set := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }
	for name := range perLayerUnits {
		set(name, 0)
	}
	lat := run.latencies()
	completed := float64(max(len(lat), 1))
	if workload == "sweep_grid" {
		var submit, queue, runMs []float64
		for _, o := range run.ops {
			submit = append(submit, o.submit)
			queue = append(queue, o.queue)
			runMs = append(runMs, o.run)
		}
		set("jobs.submit_ms", median(submit))
		set("jobs.queue_wait_ms", median(queue))
		set("jobs.run_ms", median(runMs))
	}
	if lookups := run.status.CacheHits + run.status.CacheMisses; lookups > 0 {
		set("server.cache_hit_ratio", float64(run.status.CacheHits)/float64(lookups))
	}
	set("go.allocs_per_op", run.win.allocs/completed)
	set("go.alloc_mb_per_op", run.win.allocMB/completed)
	set("go.gc_cpu_ms_per_op", run.win.gcCPUms/completed)
	set("host.steal_pct", run.win.stealPct)
	// The tail and the throughput follow hypervisor steal too closely to
	// hold a bound on a shared 2-vCPU host, so they are reported here,
	// unbounded, beside the steal that explains them.
	set("e2e.p90_ms", quantile(lat, 0.9))
	set("e2e.ops_per_s", completed/run.win.wall.Seconds())

	// The distinct inputs to replay: the first replayOps the run sent.
	var ids []int
	for i := range run.bodies {
		ids = append(ids, i)
	}
	sort.Ints(ids)
	if len(ids) > replayOps {
		ids = ids[:replayOps]
	}
	rp, err := newReplayer(dir)
	if err != nil {
		return 0, err
	}
	defer rp.close()
	t := newTracer()
	delegated := workload == "assess_stream"
	if delegated {
		if err := rp.startCluster(t); err != nil {
			return 0, err
		}
	}

	failed := 0
	mismatch := func(i int, what string, body []byte) {
		if !bytes.Equal(body, run.bodies[i]) || !bytes.Equal(body, want[i]) {
			fmt.Fprintf(out, "replay mismatch: input %d (%s)\n", i, what)
			failed++
		}
	}
	// The replay is the benchmark's own copy of the server's pipeline;
	// its pass counts must equal the planner's for every op, so a server
	// change that reshapes the passes fails the run until the copy
	// follows it.
	counted := []string{"dataset.csv_passes"}
	if workload == "sweep_grid" {
		counted = append(counted, "sweep.passes")
	}
	var plain []float64 // untraced replay time of each op, ms
	var tracedTotal time.Duration
	for _, i := range ids {
		op := in.ops[i]
		t0 := time.Now()
		body, err := replayOp(nil, rp, workload, op)
		plain = append(plain, ms(time.Since(t0)))
		if err != nil {
			return 0, err
		}
		mismatch(i, "untraced", body)

		before := make([]float64, len(counted))
		for k, c := range counted {
			before[k] = t.counts[c]
		}
		t.op = i
		t0 = time.Now()
		root := t.begin("replay.op")
		body, err = replayOp(t, rp, workload, op)
		t.end(root)
		tracedTotal += time.Since(t0)
		if err != nil {
			return 0, err
		}
		mismatch(i, "traced", body)
		for k, c := range counted {
			if got, w := t.counts[c]-before[k], wantCount(c, workload, in); got != w {
				fmt.Fprintf(out, "pass mismatch: input %d made %g %s, planned %g\n", i, got, c, w)
				failed++
			}
		}

		if delegated {
			body, err := rp.delegate(t, op.up, op.params)
			if err != nil {
				return 0, err
			}
			mismatch(i, "delegated", body)
		}
	}
	n := float64(len(ids))
	self := t.selfTimes()
	for _, l := range layerMetrics {
		set(l.metric, self[l.span]/n)
	}
	for _, c := range []string{"dataset.parse_mb", "dataset.csv_passes", "sweep.passes"} {
		set(c, t.counts[c]/n)
	}
	// The op time and the server's share come from the untraced replay,
	// so the decorators' own cost (bench.trace_overhead_pct) stays out.
	var plainTotal float64
	for _, v := range plain {
		plainTotal += v
	}
	set("replay.op_ms", median(plain))
	set("server.overhead_ms", median(lat)-median(plain))
	set("bench.trace_overhead_pct", 100*(ms(tracedTotal)/plainTotal-1))
	reportPredictions(out, workload, in, m, median(lat))
	return failed, nil
}

// replayOp replays one input: a standalone streamed assessment, or a
// sweep job group by group.
func replayOp(t *tracer, rp *replayer, workload string, op opInput) ([]byte, error) {
	if workload != "sweep_grid" {
		return rp.assess(t, op.up.path, op.up.digest, len(op.up.body), op.params)
	}
	return rp.sweep(t, op.up, op.spec)
}

// reportPredictions prints, for each row of the table that applies to
// this workload, whether it held.
func reportPredictions(out io.Writer, workload string, in *inputs, m map[string]metric, p50 float64) {
	opMs := m["replay.op_ms"].Value
	// The largest self time among the layers inside the replayed op; the
	// delegated path (cluster.*) is replayed beside it, not inside it.
	var largest string
	for _, l := range layerMetrics {
		if strings.HasPrefix(l.metric, "cluster.") {
			continue
		}
		if largest == "" || m[l.metric].Value > m[largest].Value {
			largest = l.metric
		}
	}
	for _, p := range predictions {
		if p.workload != workload {
			continue
		}
		v := m[p.metric].Value
		var held bool
		var detail string
		switch p.kind {
		case "largest":
			held = largest == p.metric
			detail = fmt.Sprintf("%.3f ms/op; largest is %s at %.3f", v, largest, m[largest].Value)
		case "registers":
			base := opMs
			if strings.HasPrefix(p.metric, "jobs.") || p.metric == "server.overhead_ms" {
				base = p50
			}
			held = v >= 0.01*base
			detail = fmt.Sprintf("%.3f of %.3f ms", v, base)
		case "small":
			held = v < 0.1*opMs
			detail = fmt.Sprintf("%.3f of %.3f ms", v, opMs)
		case "equals":
			w := wantCount(p.metric, workload, in)
			held = v == w
			detail = fmt.Sprintf("%g, want %g", v, w)
		}
		verdict := "held"
		if !held {
			verdict = "FAILED"
		}
		fmt.Fprintf(out, "prediction: %s %s on %s (moves %s): %s (%s)\n", p.metric, p.kind, workload, p.moves, verdict, detail)
	}
}

// wantCount is the exact value an "equals" prediction expects.
func wantCount(metric, workload string, in *inputs) float64 {
	switch metric {
	case "dataset.csv_passes":
		if workload == "sweep_grid" {
			return 1
		}
		return float64(sweep.PassesFor(registry, in.ops[0].params))
	case "sweep.passes":
		plan, err := compileSweep(in.ops[0].spec)
		if err != nil {
			return -1
		}
		return float64(plan.PlannedPasses)
	}
	return 0
}
