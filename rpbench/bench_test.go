package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"randpriv/internal/sweep"
)

// shape is everything about a workload's inputs except the generated
// data: what the seed must leave alone.
func shape(t *testing.T, in *inputs) []byte {
	t.Helper()
	type opShape struct {
		Size   int
		Query  string
		Params sweep.Params
		Grid   int
	}
	var ops []opShape
	for _, op := range in.ops {
		s := opShape{Size: len(bytes.Split(op.up.body, []byte("\n"))), Params: op.params}
		// Queries and params differ only in the seed.
		s.Params.Seed = 0
		if op.query != "" {
			s.Query = query(s.Params)
		}
		if op.spec != nil {
			plan, err := compileSweep(op.spec)
			if err != nil {
				t.Fatal(err)
			}
			s.Grid = len(plan.Points)
		}
		ops = append(ops, s)
	}
	out, err := json.Marshal(ops)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSeedChangesInputsOnly(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			gen := func(seed int64) *inputs {
				in, err := genInputs(w, seed, t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				return in
			}
			a, again, b := gen(1), gen(1), gen(2)
			if !bytes.Equal(shape(t, a), shape(t, b)) {
				t.Errorf("seeds 1 and 2 give workloads of different shape")
			}
			for i := range a.ops {
				if !bytes.Equal(a.ops[i].up.body, again.ops[i].up.body) || a.ops[i].query != again.ops[i].query ||
					!bytes.Equal(a.ops[i].spec, again.ops[i].spec) {
					t.Fatalf("seed 1 twice gives different input %d", i)
				}
			}
			if bytes.Equal(a.ops[0].up.body, b.ops[0].up.body) {
				t.Errorf("seeds 1 and 2 give the same upload")
			}
			if w == "assess_stream" && a.ops[0].params.Seed == b.ops[0].params.Seed {
				t.Errorf("seeds 1 and 2 give the same assessment seed")
			}
			if w == "sweep_grid" && bytes.Equal(a.ops[0].spec, b.ops[0].spec) {
				t.Errorf("seeds 1 and 2 give the same sweep spec")
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the tests compare with.
type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	Workload []struct{ Name string }       `json:"workloads"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func checkNames(t *testing.T, got map[string]metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("printed %d metrics, BENCHMARK.json lists %d", len(got), len(want))
	}
	for _, w := range want {
		m, ok := got[w.Name]
		if !ok {
			t.Errorf("metric %s not printed", w.Name)
		} else if m.Unit != w.Unit {
			t.Errorf("metric %s printed in %s, BENCHMARK.json says %s", w.Name, m.Unit, w.Unit)
		}
	}
}

// TestShortRuns runs every workload briefly, traced (so every replayed
// op, delegated or not, must equal its HTTP body) and, for one workload,
// untraced, and checks the printed metrics against BENCHMARK.json.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("starts servers and replays ops")
	}
	b := readBenchmarkJSON(t)
	var names []string
	for _, w := range b.Workload {
		names = append(names, w.Name)
	}
	if len(names) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists workloads %v, the benchmark runs %v", names, workloads)
	}
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			res, err := run(io.Discard, w, 7, 1, true, t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("traced run: correct=%t attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			checkNames(t, res.Metrics, b.PerLayer)
		})
	}
	res, err := run(io.Discard, "assess_stream", 8, 1, false, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("untraced run failed %d of %d ops", res.Failed, res.Attempted)
	}
	checkNames(t, res.Metrics, b.EndToEnd)
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{spans: []span{
		{name: "root", start: 0, end: 100, parent: -1},
		{name: "a", start: 10, end: 50, parent: 0},
		{name: "b", start: 20, end: 30, parent: 1},
		{name: "b", start: 60, end: 70, parent: 0},
	}}
	self := tr.selfTimes()
	ns := func(ms float64) float64 { return ms * 1e6 }
	for name, want := range map[string]float64{"root": 50, "a": 30, "b": 20} {
		if got := ns(self[name]); got < want-1e-9 || got > want+1e-9 {
			t.Errorf("self(%s) = %g ns, want %g", name, got, want)
		}
	}
}
