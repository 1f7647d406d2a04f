package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/server"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// The replay recomputes an op's response body by calling the layers'
// public functions in the order the server calls them. Untraced (a nil
// tracer) it computes the expected bytes every HTTP body is checked
// against; traced, the decorators in trace.go time each layer, and the
// bytes must come out identical — the proof the decorators changed
// nothing.

var registry = core.Builtins()

// replayer holds what the replays share: a scratch directory for the
// disguised spools, a workspace, and (when started) the delegation stack
// a cluster job runs through.
type replayer struct {
	dir string
	ws  *mat.Workspace

	// A coordinator over its own state directory with the server's
	// assess runner registered on its embedded claim loop.
	srv   *server.Server
	coord *cluster.Coordinator
}

func newReplayer(dir string) (*replayer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &replayer{dir: dir, ws: mat.NewWorkspace()}, nil
}

func (r *replayer) close() {
	if r.coord != nil {
		r.coord.Close()
	}
	if r.srv != nil {
		r.srv.Close()
	}
}

// validate is the server's fail-fast pass: every chunk once, checked.
func validate(src stream.Source) (int64, error) {
	if err := src.Reset(); err != nil {
		return 0, err
	}
	var rows int64
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return 0, err
		}
		if err := stream.ValidateChunk(chunk, rows); err != nil {
			return 0, err
		}
		rows += int64(chunk.Rows())
	}
}

// perturbToSpool disguises orig into a CSV spool file, as the server
// does before the battery re-reads it.
func (r *replayer) perturbToSpool(t *tracer, orig stream.Source, names []string, bd core.BuiltDefense, seed int64) (string, error) {
	f, err := os.CreateTemp(r.dir, "disg-*.csv")
	if err != nil {
		return "", err
	}
	cw, err := dataset.NewChunkWriter(f, names)
	if err != nil {
		f.Close()
		return "", err
	}
	err = t.do("randomize.perturb", func() error {
		return bd.Scheme.PerturbStream(orig, traceSink(t, "dataset.encode", cw), sweep.PointRNG(seed))
	})
	if err == nil {
		err = t.do("dataset.encode", cw.Flush)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

func buildDefense(p sweep.Params, orig stream.Source) (core.BuiltDefense, error) {
	return sweep.Env{Reg: registry}.BuildDefense(p, func() (*mat.Dense, error) {
		mo, err := stream.Accumulate(orig, 1)
		if err != nil {
			return nil, err
		}
		return mo.Covariance(), nil
	})
}

// assess replays one standalone streamed /v1/assess over the file at
// path: validate, perturb into a spool, the NDR baseline, each attack of
// the battery, and the canonical report.
func (r *replayer) assess(t *tracer, path, digest string, size int, p sweep.Params) ([]byte, error) {
	raw, err := dataset.OpenCSVChunks(path, p.Chunk)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	names := raw.Names()
	orig := traceCSV(t, raw, size)
	rows, err := validate(orig)
	if err != nil {
		return nil, err
	}
	bd, err := buildDefense(p, orig)
	if err != nil {
		return nil, err
	}
	disgPath, err := r.perturbToSpool(t, orig, names, bd, p.Seed)
	if err != nil {
		return nil, err
	}
	defer os.Remove(disgPath)
	rawDisg, err := dataset.OpenCSVChunks(disgPath, p.Chunk)
	if err != nil {
		return nil, err
	}
	defer rawDisg.Close()
	st, err := os.Stat(disgPath)
	if err != nil {
		return nil, err
	}
	disg := traceCSV(t, rawDisg, int(st.Size()))

	attacks, err := registry.BuildStreamAttacks(sweep.AttackModes(p, bd.Noise), core.AttackContext{Noise: bd.Noise, WS: r.ws})
	if err != nil {
		return nil, err
	}
	var ndr float64
	err = t.do("core.ndr", func() error {
		var err error
		ndr, err = core.StreamNDRBaseline(orig, disg)
		return err
	})
	if err != nil {
		return nil, err
	}
	desc := fmt.Sprintf("%s (streaming, %d-row chunks)", bd.Scheme.Describe(), p.Chunk)
	var rep *core.PrivacyReport
	err = t.do("core.evaluate", func() error {
		var err error
		rep, err = core.EvaluateStreamWith(orig, disg, desc, ndr, traceAttacks(t, attacks), nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	var body []byte
	err = t.do("sweep.marshal", func() error {
		var err error
		body, err = sweep.MarshalReport(rep, nil, p, rows, len(names), digest)
		return err
	})
	return body, err
}

// passCounter counts Reset calls — the sweep executor's own pass
// accounting, applied through GroupExec's wrap hook.
type passCounter struct {
	src    stream.Source
	resets *int64
}

func (c passCounter) Next() (*mat.Dense, error) { return c.src.Next() }
func (c passCounter) Reset() error {
	*c.resets++
	return c.src.Reset()
}

// compileSweep expands and compiles a sweep spec exactly as the server's
// sweep job runner does.
func compileSweep(specBytes []byte) (*sweep.Plan, error) {
	spec, err := sweep.ParseSpec(specBytes)
	if err != nil {
		return nil, err
	}
	grid, err := spec.Expand(registry, spec.Chunk, 0)
	if err != nil {
		return nil, err
	}
	return sweep.Compile(registry, grid)
}

// sweepExpected runs the library's own executor (no cache) over the
// upload: the expected body of a sweep job.
func sweepExpected(up upload, specBytes []byte, ws *mat.Workspace) ([]byte, error) {
	plan, err := compileSweep(specBytes)
	if err != nil {
		return nil, err
	}
	src, err := dataset.OpenCSVChunks(up.path, plan.Points[0].Params.Chunk)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	res, err := sweep.Execute(context.Background(), sweep.ExecConfig{Env: sweep.Env{Reg: registry, WS: ws}, Digest: up.digest}, plan, src, src.Names())
	if err != nil {
		return nil, err
	}
	if res.MeasuredPasses != res.PlannedPasses {
		return nil, fmt.Errorf("sweep made %d passes, planned %d", res.MeasuredPasses, res.PlannedPasses)
	}
	return sweep.MarshalResult(res)
}

// sweep replays a sweep job group by group through sweep.NewGroupExec
// and GroupExec.Run, assembling the full-grid result the way the
// executor does, and counts the passes made through the wrap hook as
// sweep.passes.
func (r *replayer) sweep(t *tracer, up upload, specBytes []byte) ([]byte, error) {
	plan, err := compileSweep(specBytes)
	if err != nil {
		return nil, err
	}
	chunk := plan.Points[0].Params.Chunk
	raw, err := dataset.OpenCSVChunks(up.path, chunk)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	names := raw.Names()
	var passes int64
	wrap := func(s stream.Source) stream.Source { return passCounter{src: s, resets: &passes} }
	var ge *sweep.GroupExec
	err = t.do("sweep.validate", func() error {
		var err error
		ge, err = sweep.NewGroupExec(sweep.Env{Reg: registry, WS: r.ws}, up.digest, plan.Stream, chunk, len(names), traceCSV(t, raw, len(up.body)), wrap)
		return err
	})
	if err != nil {
		return nil, err
	}
	res := &sweep.Result{
		Rows:                ge.Rows(),
		Cols:                len(names),
		DatasetSHA256:       up.digest,
		GridPoints:          len(plan.Points) + plan.Collapsed,
		CollapsedDuplicates: plan.Collapsed,
		PlannedPasses:       plan.PlannedPasses,
		SequentialPasses:    plan.SequentialPasses,
		Points:              make([]sweep.PointResult, len(plan.Points)),
	}
	for i, pt := range plan.Points {
		res.Points[i] = sweep.PointResult{Params: pt.Params, GridIndices: pt.GridIndices}
	}
	for _, g := range plan.Groups {
		pts := make([]sweep.Params, len(g.Points))
		for i, pi := range g.Points {
			pts[i] = plan.Points[pi].Params
		}
		var outcomes []sweep.GroupOutcome
		err := t.do("sweep.group", func() error {
			var err error
			outcomes, err = ge.Run(context.Background(), g.Key, pts)
			return err
		})
		if err != nil {
			return nil, err
		}
		for i, oc := range outcomes {
			pi := g.Points[i]
			if oc.Err != "" {
				res.Points[pi].Error = oc.Err
				continue
			}
			res.Points[pi].Report = json.RawMessage(oc.Body[:len(oc.Body)-1])
		}
	}
	t.count("sweep.passes", float64(passes))
	var body []byte
	err = t.do("sweep.marshal", func() error {
		var err error
		body, err = sweep.MarshalResult(res)
		return err
	})
	return body, err
}

// startCluster stands up the delegation stack a plain job runs through
// on a cluster coordinator: a server (only its assess runner is used), a
// store over a fresh directory, and a coordinator with the default
// single embedded claim loop running that runner, decorated so t sees
// each run's interval.
func (r *replayer) startCluster(t *tracer) error {
	if err := os.MkdirAll(filepath.Join(r.dir, "spool"), 0o755); err != nil {
		return err
	}
	srv, err := server.New(server.Config{
		SpoolDir: filepath.Join(r.dir, "spool"),
		JobsDir:  filepath.Join(r.dir, "jobs"),
		Log:      discardLog(),
	})
	if err != nil {
		return err
	}
	r.srv = srv
	st, err := cluster.OpenStore(filepath.Join(r.dir, "cluster"), cluster.StoreOptions{})
	if err != nil {
		return err
	}
	coord, err := cluster.NewCoordinator(st, cluster.CoordinatorOptions{Node: "replay", Log: discardLog()})
	if err != nil {
		return err
	}
	coord.Register(cluster.TaskAssess, traceRunner(t, srv.ClusterAssessRunner()))
	if err := coord.Start(); err != nil {
		return err
	}
	r.coord = coord
	return nil
}

// jobSpecJSON is the server's durable plain-job spec for p: the bytes a
// delegated assess task carries.
func jobSpecJSON(p sweep.Params, digest string) ([]byte, error) {
	return json.Marshal(struct {
		Sigma       float64 `json:"sigma"`
		Seed        int64   `json:"seed"`
		Scheme      string  `json:"scheme"`
		Chunk       int     `json:"chunk"`
		Stream      bool    `json:"stream"`
		Epsilon     float64 `json:"epsilon,omitempty"`
		Delta       float64 `json:"delta,omitempty"`
		Sensitivity float64 `json:"sensitivity,omitempty"`
		Digest      string  `json:"digest"`
	}{p.Sigma, p.Seed, p.Scheme, p.Chunk, p.Stream, p.Epsilon, p.Delta, p.Sensitivity, digest})
}

// delegate replays the delegated path of a plain job on a coordinator:
// put the upload into the content-addressed store, enqueue the assess
// task, and await its done file while the embedded claim loop runs the
// server's runner.
func (r *replayer) delegate(t *tracer, up upload, p sweep.Params) ([]byte, error) {
	st := r.coord.Store()
	if err := t.do("cluster.put", func() error {
		_, err := st.PutFile(up.path)
		return err
	}); err != nil {
		return nil, err
	}
	spec, err := jobSpecJSON(p, up.digest)
	if err != nil {
		return nil, err
	}
	task := cluster.NewAssessTask(spec, up.digest)
	var bodies [][]byte
	ai := t.begin("cluster.protocol")
	err = st.Enqueue(task)
	if err == nil {
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		bodies, err = r.coord.Await(ctx, []string{task.ID})
		cancel()
	}
	t.attachRemote(ai, task.ID)
	t.end(ai)
	if err != nil {
		return nil, err
	}
	return bodies[0], nil
}
