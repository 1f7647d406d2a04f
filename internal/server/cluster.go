// Cluster integration: how the HTTP service becomes a coordinator.
//
// With Config.ClusterDir set, the server opens the shared state
// directory, starts a cluster.Coordinator (with ClusterWorkers embedded
// claim loops, so a solo node still makes progress), and uses the
// cluster four ways:
//
//   - Plain assessment jobs submitted to POST /v1/jobs are delegated to
//     the task queue: the upload goes into the content-addressed store,
//     an assess task is enqueued, and any attached worker process (or an
//     embedded claim loop) computes it. The shared result cache — keyed
//     on the same sweep.CacheKey as the in-process LRU — serves repeats
//     across every node that shares the directory.
//   - Sweep jobs are partitioned at perturbation-group boundaries: one
//     sweepgroup task per group, each executed end-to-end (perturb →
//     shared sketch → every point's battery) by whichever node claims
//     it, with the coordinator merging the group envelopes back in grid
//     order. The full-grid body is byte-identical to single-process
//     execution because both paths run the same sweep.GroupExec.
//   - A synchronous streamed assessment fans its scoring pass out as one
//     score task per battery attack, when at least two claim loops are
//     alive to run them in parallel. The merge reproduces the serial
//     result order, so the report is bit-identical to the serial one.
//   - GET /v1/status grows a cluster section with per-node heartbeat
//     gauges and the task-queue depths, per task kind.
//
// All three delegations go through one helper, delegate, which owns the
// policy: the alive-loop gate, the breaker, the store put, the enqueue,
// the await and the fallback. Every failure falls back to the local
// serial computation — the cluster is an accelerator, the single
// process the reference. Fallback is always legal because both paths
// produce byte-identical results.

package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/jobs"
	"randpriv/internal/mat"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// openCluster stands the coordinator up during New. Every runner is
// registered on the embedded workers so a coordinator-only deployment
// still executes delegated work itself.
func (s *Server) openCluster() error {
	st, err := cluster.OpenStore(s.cfg.ClusterDir, cluster.StoreOptions{FS: s.cfg.FS})
	if err != nil {
		return err
	}
	// Three consecutive infrastructure failures open the breaker; while
	// it cools down every delegable computation goes straight to the
	// serial path instead of timing out against a sick cluster again.
	s.breaker = &cluster.Breaker{Threshold: 3, Cooldown: 30 * time.Second}
	c, err := cluster.NewCoordinator(st, cluster.CoordinatorOptions{
		Node:     s.cfg.NodeID,
		Workers:  s.cfg.ClusterWorkers,
		LeaseTTL: s.cfg.ClusterLeaseTTL,
		Log:      s.cfg.Log,
	})
	if err != nil {
		return err
	}
	for kind, r := range s.ClusterRunners() {
		c.Register(kind, r)
	}
	if err := c.Start(); err != nil {
		return err
	}
	s.cluster = c
	return nil
}

// defaultNodeID derives a filename-safe cluster identity from the host
// name and pid — unique enough for several processes sharing one state
// directory on one or many machines.
func defaultNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "node"
	}
	var b strings.Builder
	for _, r := range host {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
	}
	return fmt.Sprintf("%s-%d", b.String(), os.Getpid())
}

// ClusterRunners maps every task kind the server enqueues to the runner
// that executes it. Coordinator-embedded claim loops and worker-role
// processes both register from this one list, so they cannot drift.
func (s *Server) ClusterRunners() map[string]cluster.TaskRunner {
	return map[string]cluster.TaskRunner{
		cluster.TaskAssess:     s.ClusterAssessRunner(),
		cluster.TaskSweepGroup: s.clusterSweepGroupRunner(),
		cluster.TaskScore:      s.clusterScoreRunner(),
	}
}

// delegation is one batch of work a caller hands to the cluster: the
// caller builds the task specs and merges the results, delegate does
// everything in between.
type delegation struct {
	// what names the work in log lines ("job", "sweep", "score pass").
	what string
	// files are the local files the tasks read, put into the
	// content-addressed store in order.
	files []string
	// digest, when set, is the digest files[0] must have. A job dir and
	// a spec that disagree about the bytes are both distrusted.
	digest string
	// minLoops is the fewest alive claim loops worth delegating to.
	minLoops int
	// bounded caps the wait at ClusterDelegateTimeout. Only synchronous
	// requests set it: a delegated job legitimately runs as long as it
	// takes.
	bounded bool
	// tasks builds the batch from the store digests of files.
	tasks func(ctx context.Context, digests []string) ([]cluster.Task, error)
	// done, when non-nil, observes each task's completion.
	done func(i int, body []byte)
	// merge consumes the results, in task order.
	merge func(bodies [][]byte) error
}

// delegate runs d through the task queue. It is the one place the
// server consults the breaker, enqueues and awaits, so the policy is
// written once:
//
//   - fewer than d.minLoops alive claim loops, or an open breaker, hands
//     the work straight back: with no claim loop a delegated task would
//     wait forever;
//   - store failures (put, enqueue, reading results) and an expired
//     delegation deadline feed the breaker; a task's own error does not,
//     because the serial path would fail identically;
//   - if the caller's context died, its error comes back, since
//     recomputing locally would be wasted work.
//
// delegated == false with a nil error means the caller must compute
// locally.
func (s *Server) delegate(ctx context.Context, d delegation) (delegated bool, err error) {
	now := time.Now().UTC()
	if s.cluster.AliveWorkers(now) < d.minLoops || !s.breaker.Allow(now) {
		return false, nil
	}
	// Past Allow every exit settles the breaker: a half-open breaker
	// admits one probe and refuses everything until it hears back.
	decline := func(stage string, err error, infra bool) (bool, error) {
		if cerr := ctx.Err(); cerr != nil {
			s.breaker.Abstain()
			return false, cerr
		}
		if infra {
			s.breaker.Failure(time.Now().UTC())
		} else {
			s.breaker.Abstain()
		}
		s.cfg.Log.Printf("randprivd: cluster %s: %s: %v (computing locally)", d.what, stage, err)
		return false, nil
	}
	st := s.cluster.Store()
	digests := make([]string, len(d.files))
	for i, f := range d.files {
		if digests[i], err = st.PutFile(f); err != nil {
			return decline("store put", err, true)
		}
	}
	if d.digest != "" && digests[0] != d.digest {
		return decline("digest check", fmt.Errorf("upload digest %s, spec digest %s", digests[0], d.digest), false)
	}
	wait := ctx
	if d.bounded {
		var cancel context.CancelFunc
		wait, cancel = context.WithTimeout(ctx, s.cfg.ClusterDelegateTimeout)
		defer cancel()
	}
	tasks, err := d.tasks(wait, digests)
	if err != nil {
		return decline("build tasks", err, false)
	}
	ids := make([]string, len(tasks))
	for i, t := range tasks {
		if err := st.Enqueue(t); err != nil {
			return decline("enqueue", err, true)
		}
		ids[i] = t.ID
	}
	bodies, err := s.cluster.AwaitFunc(wait, ids, d.done)
	if err != nil {
		var te *cluster.TaskError
		return decline("await", err, !errors.As(err, &te))
	}
	s.breaker.Success()
	if err := d.merge(bodies); err != nil {
		return decline("merge", err, false)
	}
	return true, nil
}

// ClusterAssessRunner returns the cluster.TaskRunner that executes one
// delegated plain assessment: open the content-addressed upload, run the
// exact runAssessment path the synchronous endpoint uses (score
// delegation disabled — a task must never enqueue sub-tasks, or a lone
// worker deadlocks on its own queue), and publish the report into the
// shared result cache.
func (s *Server) ClusterAssessRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var sp jobSpec
		if err := json.Unmarshal(t.Spec, &sp); err != nil {
			return nil, fmt.Errorf("server: decode assess task spec: %w", err)
		}
		if sp.Type != "" {
			return nil, fmt.Errorf("server: assess tasks carry plain assessments only, got type %q", sp.Type)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		p := sp.params()
		src, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), p.Chunk)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		body, err := s.runAssessment(ctx, src, p, sp.Digest, ws, nil, false)
		if err != nil {
			return nil, err
		}
		if err := st.PutCachedResult(sweep.CacheKey(sweepParams(p), sp.Digest), body); err != nil {
			s.cfg.Log.Printf("randprivd: cluster result cache write: %v", err)
		}
		return body, nil
	}
}

// runJobViaCluster routes one plain assessment job through the task
// queue, after a look in the shared result cache.
func (s *Server) runJobViaCluster(ctx context.Context, rawSpec json.RawMessage, sp jobSpec, upload string) (body []byte, delegated bool, err error) {
	if body, ok := s.cluster.Store().CachedResult(sweep.CacheKey(sweepParams(sp.params()), sp.Digest)); ok {
		return body, true, nil
	}
	delegated, err = s.delegate(ctx, delegation{
		what: "job", files: []string{upload}, digest: sp.Digest, minLoops: 1,
		tasks: func(_ context.Context, digests []string) ([]cluster.Task, error) {
			return []cluster.Task{cluster.NewAssessTask(rawSpec, digests[0])}, nil
		},
		merge: func(bodies [][]byte) error {
			body = bodies[0]
			return nil
		},
	})
	return body, delegated, err
}

// sweepGroupSpec is the wire form of one delegated sweep-group task: the
// perturbation group's points in grid order plus the plan-level flags
// they share. encoding/json marshals it canonically, so the task id
// derived from these bytes is stable across coordinator restarts — a
// recovered sweep job re-enqueues the identical ids and finds its
// earlier done files.
type sweepGroupSpec struct {
	Stream bool           `json:"stream"`
	Points []sweep.Params `json:"points"`
}

// groupPointResult is one grid point's outcome inside a group envelope:
// the canonical report bytes (the standalone /v1/assess body minus its
// trailing newline — exactly what sweep.PointResult embeds), or the
// parameter rejection. Exactly one field is set.
type groupPointResult struct {
	Report json.RawMessage `json:"report,omitempty"`
	Error  string          `json:"error,omitempty"`
}

// groupEnvelope is a sweep-group task's done-file payload. Every field
// is a function of (spec, data, registry) alone, so duplicate executions
// after a lease reclaim write identical bytes — the determinism the
// completion protocol rests on.
type groupEnvelope struct {
	Rows   int64              `json:"rows"`
	Points []groupPointResult `json:"points"`
}

// clusterSweepGroupRunner returns the cluster.TaskRunner that executes
// one perturbation group of a delegated sweep end-to-end: open the
// content-addressed upload, perturb once, share the group's sketch and
// baseline, and evaluate every point — through the same sweep.GroupExec
// the single-process executor drives, which is what keeps the merged
// full-grid result byte-identical. Each computed report is published to
// the shared result cache under the same key a standalone /v1/assess
// would use, and cache-warm points are served without recompute. The
// runner never enqueues sub-tasks (a task spawning tasks deadlocks a
// lone worker on its own queue).
func (s *Server) clusterSweepGroupRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var gs sweepGroupSpec
		if err := json.Unmarshal(t.Spec, &gs); err != nil {
			return nil, fmt.Errorf("server: decode sweep-group task spec: %w", err)
		}
		if len(gs.Points) == 0 {
			return nil, fmt.Errorf("server: sweep-group task %s carries no points", t.ID)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		chunk := gs.Points[0].Chunk
		src, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), chunk)
		if err != nil {
			return nil, err
		}
		defer src.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		wrap := func(raw stream.Source) stream.Source {
			return stream.ContextSource{Ctx: ctx, Src: raw}
		}
		ge, err := sweep.NewGroupExec(sweep.Env{Reg: defaultRegistry, WS: ws}, t.Digest, gs.Stream, chunk, len(src.Names()), src, wrap)
		if err != nil {
			return nil, err
		}
		env := groupEnvelope{Rows: ge.Rows(), Points: make([]groupPointResult, len(gs.Points))}
		var pending []int
		for i, p := range gs.Points {
			if body, ok := st.CachedResult(sweep.CacheKey(p, t.Digest)); ok && len(body) > 0 && body[len(body)-1] == '\n' {
				env.Points[i].Report = json.RawMessage(body[:len(body)-1])
				continue
			}
			pending = append(pending, i)
		}
		if len(pending) > 0 {
			pts := make([]sweep.Params, len(pending))
			for i, pi := range pending {
				pts[i] = gs.Points[pi]
			}
			outcomes, err := ge.Run(ctx, sweep.PerturbKey(pts[0]), pts)
			if err != nil {
				return nil, err
			}
			for i, oc := range outcomes {
				pi := pending[i]
				if oc.Err != "" {
					env.Points[pi].Error = oc.Err
					continue
				}
				env.Points[pi].Report = json.RawMessage(oc.Body[:len(oc.Body)-1])
				if err := st.PutCachedResult(sweep.CacheKey(pts[i], t.Digest), oc.Body); err != nil {
					s.cfg.Log.Printf("randprivd: cluster result cache write: %v", err)
				}
			}
		}
		return json.Marshal(env)
	}
}

// runSweepViaCluster routes a compiled sweep plan through the task
// queue, one task per perturbation group — the plan's natural unit of
// shared work, so a delegated group still amortizes its perturbation,
// baseline and sketch across its points exactly like the local executor.
// The merge puts the group envelopes back in grid order, which keeps the
// full-grid body byte-identical to single-process execution.
func (s *Server) runSweepViaCluster(ctx context.Context, sp jobSpec, plan *sweep.Plan, upload string, cols int, progress func(jobs.Progress)) (body []byte, delegated bool, err error) {
	var doneGroups, donePoints int64
	note := func() {
		if progress != nil {
			progress(jobs.Progress{
				PointsDone: donePoints, PointsTotal: int64(len(plan.Points)),
				GroupsDone: doneGroups, GroupsTotal: int64(len(plan.Groups)),
			})
		}
	}
	delegated, err = s.delegate(ctx, delegation{
		what: "sweep", files: []string{upload}, digest: sp.Digest, minLoops: 1,
		tasks: func(_ context.Context, digests []string) ([]cluster.Task, error) {
			tasks := make([]cluster.Task, len(plan.Groups))
			for i, g := range plan.Groups {
				pts := make([]sweep.Params, len(g.Points))
				for j, pi := range g.Points {
					pts[j] = plan.Points[pi].Params
				}
				spec, err := json.Marshal(sweepGroupSpec{Stream: plan.Stream, Points: pts})
				if err != nil {
					return nil, err
				}
				tasks[i] = cluster.NewTask(cluster.TaskSweepGroup, spec, digests[0])
			}
			note()
			return tasks, nil
		},
		done: func(i int, _ []byte) {
			doneGroups++
			donePoints += int64(len(plan.Groups[i].Points))
			note()
		},
		merge: func(envs [][]byte) error {
			body, err = s.mergeSweepGroups(sp.Digest, plan, cols, envs)
			return err
		},
	})
	return body, delegated, err
}

// mergeSweepGroups assembles the full-grid result from the group
// envelopes, in grid order.
func (s *Server) mergeSweepGroups(digest string, plan *sweep.Plan, cols int, envs [][]byte) ([]byte, error) {
	res := &sweep.Result{
		Cols:                cols,
		DatasetSHA256:       digest,
		GridPoints:          len(plan.Points) + plan.Collapsed,
		CollapsedDuplicates: plan.Collapsed,
		PlannedPasses:       plan.PlannedPasses,
		SequentialPasses:    plan.SequentialPasses,
		Points:              make([]sweep.PointResult, len(plan.Points)),
	}
	for i, pt := range plan.Points {
		res.Points[i] = sweep.PointResult{Params: pt.Params, GridIndices: pt.GridIndices}
	}
	for i, g := range plan.Groups {
		var env groupEnvelope
		if err := json.Unmarshal(envs[i], &env); err != nil {
			return nil, err
		}
		if len(env.Points) != len(g.Points) {
			return nil, fmt.Errorf("group envelope carries %d points, want %d", len(env.Points), len(g.Points))
		}
		if res.Rows == 0 {
			res.Rows = env.Rows
		}
		for j, pi := range g.Points {
			res.Points[pi].Report = env.Points[j].Report
			res.Points[pi].Error = env.Points[j].Error
			// Warm the local LRU like the local executor would, so a later
			// standalone /v1/assess for this point is a cache hit here too.
			if s.cache != nil && len(env.Points[j].Report) > 0 {
				s.cache.Add(sweep.CacheKey(plan.Points[pi].Params, digest), append(append([]byte(nil), env.Points[j].Report...), '\n'))
			}
		}
	}
	return sweep.MarshalResult(res)
}

// scoreSpec is the wire form of one delegated scoring work unit: one
// attack of a streamed assessment's second pass, against the
// content-addressed (original, disguised) pair. The task digest is the
// original upload's; the disguised spool travels by its own digest. The
// NDR baseline is computed once on the coordinator and shipped in the
// spec — float64 round-trips exactly through encoding/json, so the
// worker's report fragment is bit-identical to one computed in-process.
// Params carries Attacks=[Attack] (normalized), so the same (attack,
// data) unit deduplicates across requests with different batteries.
type scoreSpec struct {
	Params     sweep.Params `json:"params"`
	Attack     string       `json:"attack"`
	DisgDigest string       `json:"disg_digest"`
	Baseline   float64      `json:"baseline"`
}

// scoreEnvelope is a score task's done-file payload: one attack's
// result fields, exactly as core.AttackResult carries them.
type scoreEnvelope struct {
	Attack     string    `json:"attack"`
	RMSE       float64   `json:"rmse,omitempty"`
	ColumnRMSE []float64 `json:"column_rmse,omitempty"`
	GainVsNDR  float64   `json:"gain_vs_ndr,omitempty"`
	Error      string    `json:"error,omitempty"`
}

// clusterScoreRunner returns the cluster.TaskRunner that executes one
// delegated scoring unit: rebuild the point's defense (the noise model
// the attack assumes), run exactly the one named attack through the
// same sweep-engine battery path the serial assessment uses, and return
// its result fields. A deterministic attack failure travels in the
// envelope — the serial path embeds it in the report rather than
// failing the assessment, and the merged report must do the same.
func (s *Server) clusterScoreRunner() cluster.TaskRunner {
	return func(ctx context.Context, st *cluster.Store, t *cluster.Task) ([]byte, error) {
		var sc scoreSpec
		if err := json.Unmarshal(t.Spec, &sc); err != nil {
			return nil, fmt.Errorf("server: decode score task spec: %w", err)
		}
		if sc.Attack == "" {
			return nil, fmt.Errorf("server: score task %s names no attack", t.ID)
		}
		if !st.HasBlob(t.Digest) {
			return nil, fmt.Errorf("server: upload blob %s missing from the cluster store", t.Digest)
		}
		if !st.HasBlob(sc.DisgDigest) {
			return nil, fmt.Errorf("server: disguised blob %s missing from the cluster store", sc.DisgDigest)
		}
		orig, err := dataset.OpenCSVChunks(st.CASPath(t.Digest), sc.Params.Chunk)
		if err != nil {
			return nil, err
		}
		defer orig.Close()
		disg, err := dataset.OpenCSVChunks(st.CASPath(sc.DisgDigest), sc.Params.Chunk)
		if err != nil {
			return nil, err
		}
		defer disg.Close()
		ws := s.jobWS.Get().(*mat.Workspace)
		ws.Reset()
		defer s.jobWS.Put(ws)
		env := sweep.Env{Reg: defaultRegistry, WS: ws}
		origSrc := stream.ContextSource{Ctx: ctx, Src: orig}
		disgSrc := stream.ContextSource{Ctx: ctx, Src: disg}
		p := sc.Params
		p.Attacks = []string{sc.Attack}
		bd, err := env.BuildDefense(p, func() (*mat.Dense, error) {
			mo, err := stream.Accumulate(origSrc, 1)
			if err != nil {
				return nil, fmt.Errorf("server: covariance pass: %w", err)
			}
			return mo.Covariance(), nil
		})
		if err != nil {
			return nil, err
		}
		baseline := sc.Baseline
		rep, err := env.EvaluateStreamPoint(p, origSrc, disgSrc, bd, &baseline, nil)
		if err != nil {
			return nil, err
		}
		// A canceled context is absorbed into the attack's error field;
		// that must fail the task (it restarts elsewhere), not masquerade
		// as a deterministic attack failure.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if len(rep.Results) != 1 {
			return nil, fmt.Errorf("server: score task %s produced %d results, want 1", t.ID, len(rep.Results))
		}
		r := rep.Results[0]
		out := scoreEnvelope{Attack: r.Attack, RMSE: r.RMSE, ColumnRMSE: r.ColumnRMSE, GainVsNDR: r.GainVsNDR}
		if r.Err != nil {
			out = scoreEnvelope{Attack: r.Attack, Error: r.Err.Error()}
		}
		return json.Marshal(out)
	}
}

// clusterScore fans the second pass of a streamed assessment out as
// one score task per battery attack, each reconstructing against the
// content-addressed (original, disguised) pair on whichever node claims
// it. It needs at least two alive claim loops: with one there is nothing
// to run in parallel, and the serial battery is faster. The merged
// report reproduces the serial evaluator's ordering via
// core.SortResults — a total order over distinct attack names — so the
// response bytes cannot depend on task completion order.
func (s *Server) clusterScore(ctx context.Context, origPath, disgPath string, bd core.BuiltDefense, p requestParams) (rep *core.PrivacyReport, delegated bool, err error) {
	modes := sweep.AttackModes(sweepParams(p), bd.Noise)
	if len(modes) < 2 || origPath == "" {
		return nil, false, nil // nothing to fan out, or a reader-backed upload the CAS cannot adopt
	}
	var baseline float64
	delegated, err = s.delegate(ctx, delegation{
		what: "score pass", files: []string{origPath, disgPath}, minLoops: 2, bounded: true,
		tasks: func(ctx context.Context, digests []string) ([]cluster.Task, error) {
			// The baseline pass runs here, once — the same two streams the
			// serial evaluator would scan, so the shipped float is the
			// identical value.
			orig, err := dataset.OpenCSVChunks(origPath, p.Chunk)
			if err != nil {
				return nil, err
			}
			defer orig.Close()
			disg, err := dataset.OpenCSVChunks(disgPath, p.Chunk)
			if err != nil {
				return nil, err
			}
			defer disg.Close()
			baseline, err = core.StreamNDRBaseline(
				stream.ContextSource{Ctx: ctx, Src: orig},
				stream.ContextSource{Ctx: ctx, Src: disg})
			if err != nil {
				return nil, err
			}
			base := sweepParams(p)
			tasks := make([]cluster.Task, len(modes))
			for i, mode := range modes {
				sp := base
				sp.Attacks = []string{mode}
				spec, err := json.Marshal(scoreSpec{Params: sp, Attack: mode, DisgDigest: digests[1], Baseline: baseline})
				if err != nil {
					return nil, err
				}
				tasks[i] = cluster.NewTask(cluster.TaskScore, spec, digests[0])
			}
			return tasks, nil
		},
		merge: func(envs [][]byte) error {
			rep = &core.PrivacyReport{
				Scheme:      fmt.Sprintf("%s (streaming, %d-row chunks)", bd.Scheme.Describe(), p.Chunk),
				NDRBaseline: baseline,
			}
			for _, raw := range envs {
				var e scoreEnvelope
				if err := json.Unmarshal(raw, &e); err != nil {
					return err
				}
				r := core.AttackResult{Attack: e.Attack, RMSE: e.RMSE, ColumnRMSE: e.ColumnRMSE, GainVsNDR: e.GainVsNDR}
				if e.Error != "" {
					r = core.AttackResult{Attack: e.Attack, Err: errors.New(e.Error)}
				}
				rep.Results = append(rep.Results, r)
			}
			core.SortResults(rep.Results)
			return nil
		},
	})
	return rep, delegated, err
}

// clusterNodeStatus is one node's row in the /v1/status cluster
// section, straight from its heartbeat file.
type clusterNodeStatus struct {
	Node         string  `json:"node"`
	Role         string  `json:"role"`
	AgeSeconds   float64 `json:"age_seconds"`
	Alive        bool    `json:"alive"`
	TasksClaimed int64   `json:"tasks_claimed"`
	TasksDone    int64   `json:"tasks_done"`
	TasksFailed  int64   `json:"tasks_failed"`
}

// clusterStatus is the /v1/status cluster section.
type clusterStatus struct {
	Node         string `json:"node"`
	AliveWorkers int    `json:"alive_workers"`
	TasksPending int    `json:"tasks_pending"`
	TasksClaimed int    `json:"tasks_claimed"`
	TasksDone    int    `json:"tasks_done"`
	// Degraded is true while the delegation breaker is open: the node is
	// serving everything through the byte-identical serial path because
	// the cluster infrastructure kept failing. BreakerTrips counts how
	// many times the breaker has opened since the server started.
	Degraded     bool  `json:"degraded"`
	BreakerTrips int64 `json:"breaker_trips"`
	// TasksByKind breaks the queue depths down per task kind (assess,
	// sweepgroup, score), so an operator can see which plane is
	// backed up. Kinds with no tasks on disk are absent.
	TasksByKind map[string]cluster.KindStats `json:"tasks_by_kind,omitempty"`
	Nodes       []clusterNodeStatus          `json:"nodes"`
}

// clusterHealth assembles the /v1/status cluster section, or nil when the
// server runs single-process.
func (s *Server) clusterHealth() *clusterStatus {
	if s.cluster == nil {
		return nil
	}
	now := time.Now().UTC()
	st := s.cluster.Store()
	pending, claimed, done := st.QueueStats()
	out := &clusterStatus{
		Node:         s.cfg.NodeID,
		AliveWorkers: s.cluster.AliveWorkers(now),
		TasksPending: pending,
		TasksClaimed: claimed,
		TasksDone:    done,
		Degraded:     s.breaker.Open(now),
		BreakerTrips: s.breaker.Trips(),
		TasksByKind:  st.QueueStatsByKind(),
	}
	nodes, err := st.Nodes()
	if err != nil {
		s.cfg.Log.Printf("randprivd: cluster node scan: %v", err)
		return out
	}
	for _, hb := range nodes {
		age := now.Sub(hb.Time)
		out.Nodes = append(out.Nodes, clusterNodeStatus{
			Node:         hb.Node,
			Role:         hb.Role,
			AgeSeconds:   age.Seconds(),
			Alive:        age <= s.cfg.ClusterLeaseTTL,
			TasksClaimed: hb.TasksClaimed,
			TasksDone:    hb.TasksDone,
			TasksFailed:  hb.TasksFailed,
		})
	}
	return out
}
