package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/recon"
	"randpriv/internal/stream"
	"randpriv/internal/sweep"
)

// Scheme identifiers the handlers special-case (the full accepted sets
// live in the operator registry).
const (
	schemeAdditive   = "additive"
	schemeCorrelated = "correlated"
	schemeNone       = "none"
)

// defaultRegistry is the operator catalogue every endpoint enumerates
// and dispatches from. Builtins() is immutable after construction, so
// sharing one instance across requests is safe.
var defaultRegistry = core.Builtins()

// requestParams are the decoded query parameters shared by the compute
// endpoints. Defaults mirror the CLI: σ=5, seed=1, additive scheme.
type requestParams struct {
	Sigma       float64  // noise standard deviation
	Seed        int64    // RNG seed (perturb/assess)
	Scheme      string   // defense mode from the registry (perturb/assess)
	Attack      string   // attack mode from the registry (attack)
	Chunk       int      // streaming chunk rows
	Stream      bool     // assess: streaming battery instead of in-memory
	Correlated  bool     // attack: shape the assumed noise from the data
	Attacks     []string // assess: explicit battery selection (empty = default)
	Utility     []string // assess: utility probes to run after the battery
	Epsilon     float64  // dp-* schemes: privacy budget ε
	Delta       float64  // dp-gaussian scheme: failure probability δ
	Sensitivity float64  // dp-* schemes: per-entry query sensitivity
	K           int      // kmeans probe: cluster count (0 = probe default)
}

// Request-size bounds, shared with the sweep spec validation so the two
// entry points can never drift.
const (
	maxChunkRows = sweep.MaxChunkRows // caps ?chunk= against hostile chunk-buffer sizes
	maxClusterK  = sweep.MaxClusterK  // caps ?k=: clustering probes are O(n·k) per iteration
)

// sweepParams maps decoded query parameters onto the sweep engine's
// point parameters — the compute-relevant subset every assessment is
// identified by.
func sweepParams(p requestParams) sweep.Params {
	return sweep.Params{
		Sigma: p.Sigma, Seed: p.Seed, Scheme: p.Scheme, Chunk: p.Chunk, Stream: p.Stream,
		Attacks: p.Attacks, Utility: p.Utility,
		Epsilon: p.Epsilon, Delta: p.Delta, Sensitivity: p.Sensitivity, K: p.K,
	}
}

// splitModes parses a comma-separated operator list, rejecting empty
// items and duplicates (a repeated mode would run — and be billed and
// cached — twice) and validating every mode through lookup.
func splitModes(v string, lookup func(string) error) ([]string, error) {
	parts := strings.Split(v, ",")
	seen := make(map[string]bool, len(parts))
	for _, mode := range parts {
		if mode == "" {
			return nil, fmt.Errorf("empty mode in list")
		}
		if seen[mode] {
			return nil, fmt.Errorf("mode %q listed twice", mode)
		}
		seen[mode] = true
		if err := lookup(mode); err != nil {
			return nil, err
		}
	}
	return parts, nil
}

// parseRequestParams decodes and validates query parameters, rejecting
// keys outside the endpoint's allowed set — a typoed or misplaced
// parameter silently falling back to a default would corrupt the
// caller's privacy conclusions (e.g. /v1/perturb?correlated=1, which is
// an attack-endpoint key, must fail loudly rather than quietly apply
// the additive scheme). It is the server-side request-parsing surface
// covered by FuzzRequestParams.
func parseRequestParams(q url.Values, defaults requestParams, allowed ...string) (requestParams, error) {
	allowedSet := make(map[string]bool, len(allowed))
	for _, k := range allowed {
		allowedSet[k] = true
	}
	p := defaults
	seen := make(map[string]bool, len(q))
	for key, vals := range q {
		if !allowedSet[key] {
			return p, fmt.Errorf("server: parameter %q is not valid for this endpoint", key)
		}
		if len(vals) != 1 {
			return p, fmt.Errorf("server: parameter %q given %d times", key, len(vals))
		}
		seen[key] = true
		v := vals[0]
		var err error
		switch key {
		case "sigma":
			p.Sigma, err = strconv.ParseFloat(v, 64)
		case "seed":
			p.Seed, err = strconv.ParseInt(v, 10, 64)
		case "scheme":
			if _, lerr := defaultRegistry.LookupDefense(v); lerr != nil {
				err = lerr
			}
			p.Scheme = v
		case "attack":
			if _, lerr := defaultRegistry.LookupAttack(v); lerr != nil {
				err = lerr
			}
			p.Attack = v
		case "attacks":
			p.Attacks, err = splitModes(v, func(mode string) error {
				_, lerr := defaultRegistry.LookupAttack(mode)
				return lerr
			})
		case "utility":
			p.Utility, err = splitModes(v, func(mode string) error {
				_, lerr := defaultRegistry.LookupUtility(mode)
				return lerr
			})
		case "epsilon":
			p.Epsilon, err = strconv.ParseFloat(v, 64)
			if err == nil && (!(p.Epsilon > 0) || math.IsInf(p.Epsilon, 0)) {
				err = fmt.Errorf("want a positive finite number")
			}
		case "delta":
			p.Delta, err = strconv.ParseFloat(v, 64)
			if err == nil && (!(p.Delta > 0) || p.Delta >= 1) {
				err = fmt.Errorf("want a number in (0, 1)")
			}
		case "sensitivity":
			p.Sensitivity, err = strconv.ParseFloat(v, 64)
			if err == nil && (!(p.Sensitivity > 0) || math.IsInf(p.Sensitivity, 0)) {
				err = fmt.Errorf("want a positive finite number")
			}
		case "k":
			p.K, err = strconv.Atoi(v)
			if err == nil && (p.K < 1 || p.K > maxClusterK) {
				err = fmt.Errorf("want 1..%d", maxClusterK)
			}
		case "chunk":
			p.Chunk, err = strconv.Atoi(v)
			if err == nil && (p.Chunk < 1 || p.Chunk > maxChunkRows) {
				err = fmt.Errorf("want 1..%d", maxChunkRows)
			}
		case "stream":
			p.Stream, err = strconv.ParseBool(v)
		case "correlated":
			p.Correlated, err = strconv.ParseBool(v)
		default:
			return p, fmt.Errorf("server: unknown parameter %q", key)
		}
		if err != nil {
			return p, fmt.Errorf("server: parameter %s=%q: %v", key, v, err)
		}
	}
	if !(p.Sigma > 0) || math.IsInf(p.Sigma, 0) {
		return p, fmt.Errorf("server: sigma must be a positive finite number, got %v", p.Sigma)
	}
	return p, checkParamCoherence(p, seen)
}

// checkParamCoherence enforces the cross-parameter rules a single-key
// switch cannot see. Each rule exists because silently ignoring the
// offending key would misreport what actually ran: a ?sigma= under a DP
// scheme has no effect on the noise, a utility probe without a defense
// has nothing to price, a resident-only attack cannot join a streamed
// battery.
func checkParamCoherence(p requestParams, seen map[string]bool) error {
	isDP := strings.HasPrefix(p.Scheme, "dp-")
	if !isDP {
		for _, key := range []string{"epsilon", "delta", "sensitivity"} {
			if seen[key] {
				return fmt.Errorf("server: parameter %q applies only to the dp-* schemes, not %q", key, p.Scheme)
			}
		}
	}
	if seen["delta"] && p.Scheme != "dp-gaussian" {
		return fmt.Errorf("server: parameter \"delta\" applies only to scheme=dp-gaussian, not %q", p.Scheme)
	}
	if seen["sigma"] && isDP {
		return fmt.Errorf("server: parameter \"sigma\" has no effect under %q (the noise scale is calibrated from epsilon)", p.Scheme)
	}
	if len(p.Utility) > 0 {
		if p.Scheme == schemeNone {
			return fmt.Errorf("server: utility probes require a defense (scheme=%s leaves nothing to measure)", schemeNone)
		}
		if p.Stream {
			return fmt.Errorf("server: utility probes run in memory mode only (drop stream=1)")
		}
	}
	if seen["k"] && !containsMode(p.Utility, "kmeans") {
		return fmt.Errorf("server: parameter \"k\" requires the kmeans utility probe")
	}
	if p.Stream {
		for _, mode := range p.Attacks {
			spec, err := defaultRegistry.LookupAttack(mode)
			if err != nil {
				return err
			}
			if !spec.Caps.Streaming {
				return fmt.Errorf("server: attack %q needs resident data and cannot join a streamed battery (streamable: %s)",
					mode, strings.Join(defaultRegistry.StreamingAttackModes(), ", "))
			}
		}
	}
	return nil
}

func containsMode(modes []string, want string) bool {
	for _, m := range modes {
		if m == want {
			return true
		}
	}
	return false
}

// decodeParams applies the server defaults, restricts the query to the
// endpoint's parameter set, and tags failures as 400s.
func (s *Server) decodeParams(r *http.Request, allowed ...string) (requestParams, error) {
	defaults := requestParams{
		Sigma: 5, Seed: 1, Scheme: schemeAdditive, Attack: "pcadr", Chunk: s.cfg.ChunkRows,
		Epsilon: 1, Delta: 1e-5, Sensitivity: 1,
	}
	p, err := parseRequestParams(r.URL.Query(), defaults, allowed...)
	if err != nil {
		return p, badRequest(err)
	}
	return p, nil
}

// requestRNG builds the request's RNG — the sweep engine's point RNG, so
// a request is bit-identical to the same point evaluated mid-sweep.
func requestRNG(seed int64) *rand.Rand {
	return sweep.PointRNG(seed)
}

// spoolAndOpen spools the request body (deadline-bounded) and opens a
// chunked source over it. On success the caller owns both and must
// Close/Remove them.
func (s *Server) spoolAndOpen(r *http.Request, chunk int) (*upload, *dataset.ChunkSource, error) {
	up, err := spoolBody(s.fs, s.cfg.SpoolDir, ctxReader{ctx: r.Context(), r: r.Body})
	if err != nil {
		return nil, nil, err // MaxBytesError surfaces here -> 413
	}
	src, err := dataset.OpenCSVChunks(up.path, chunk)
	if err != nil {
		up.Remove()
		return nil, nil, badRequest(err) // header/name problems are client data errors
	}
	return up, src, nil
}

// validateUpload runs the fail-fast pass: it streams every chunk once so
// malformed CSV surfaces as a clean 400 before any response bytes are
// written, hands each validated chunk to sink, and returns the data set
// shape. Empty data sets are rejected here for the same reason — every
// downstream consumer would.
func validateUpload(src stream.Source, cols int, sink stream.Sink) (rows int64, err error) {
	if err := src.Reset(); err != nil {
		return 0, err
	}
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return 0, badRequest(err)
		}
		if err := stream.ValidateChunk(chunk, rows); err != nil {
			return 0, badRequest(err)
		}
		if err := sink.Append(chunk); err != nil {
			return 0, err
		}
		rows += int64(chunk.Rows())
	}
	if rows == 0 || cols == 0 {
		return 0, badRequest(fmt.Errorf("server: empty data set (%d rows, %d columns)", rows, cols))
	}
	return rows, nil
}

// buildDefense constructs the requested defense through the sweep
// engine. A covariance-hungry defense sketches the data in one streaming
// pass via the DataCov hook; a failure of that pass is an I/O (or
// cancellation) problem and keeps its 500-family status, while every
// other build error comes back as a *sweep.ParamError and maps to 400.
func buildDefense(p requestParams, src stream.Source) (core.BuiltDefense, error) {
	return sweep.Env{Reg: defaultRegistry}.BuildDefense(sweepParams(p), func() (*mat.Dense, error) {
		mo, err := stream.Accumulate(src, 1)
		if err != nil {
			return nil, fmt.Errorf("server: covariance pass: %w", err)
		}
		return mo.Covariance(), nil
	})
}

// lazyCSVSink defers the CSV header until the first reconstructed chunk
// arrives, so attack failures during pass 1 (degenerate data, width
// changes) still produce a proper JSON error status instead of a
// half-started CSV response.
type lazyCSVSink struct {
	w     http.ResponseWriter
	names []string
	cw    *dataset.ChunkWriter
}

func (l *lazyCSVSink) Append(chunk *mat.Dense) error {
	if l.cw == nil {
		l.w.Header().Set("Content-Type", "text/csv")
		cw, err := dataset.NewChunkWriter(l.w, l.names)
		if err != nil {
			return err
		}
		l.cw = cw
	}
	return l.cw.Append(chunk)
}

func (l *lazyCSVSink) Flush() error {
	if l.cw == nil {
		return nil
	}
	return l.cw.Flush()
}

// handlePerturb streams a disguised copy of the uploaded CSV back:
// POST /v1/perturb?sigma=&seed=&scheme=&chunk=[&epsilon=&delta=&sensitivity=]
func (s *Server) handlePerturb(w http.ResponseWriter, r *http.Request) error {
	p, err := s.decodeParams(r, "sigma", "seed", "scheme", "chunk", "epsilon", "delta", "sensitivity")
	if err != nil {
		return err
	}
	up, src, err := s.spoolAndOpen(r, p.Chunk)
	if err != nil {
		return err
	}
	defer up.Remove()
	defer src.Close()
	return s.pool.Do(r.Context(), func(_ *mat.Workspace) error {
		_, orig, release, err := s.parseOnce(stream.ContextSource{Ctx: r.Context(), Src: src}, len(src.Names()), p.Chunk)
		if err != nil {
			return err
		}
		defer release()
		cs := stream.ContextSource{Ctx: r.Context(), Src: orig}
		bd, err := buildDefense(p, cs)
		if err != nil {
			return err
		}
		sink := &lazyCSVSink{w: w, names: src.Names()}
		if err := bd.Scheme.PerturbStream(cs, sink, requestRNG(p.Seed)); err != nil {
			return err
		}
		return sink.Flush()
	})
}

// buildAttack constructs the requested reconstructor through the
// registry, wired to the pool worker's scratch workspace. Streamable
// attacks run out-of-core; resident-data attacks are served through the
// recon.AsStream collect shim, so every registered attack is reachable
// over the chunked data plane. The correlated BE-DR variant shapes its
// assumed noise covariance from the disguised data's own sketch, exactly
// like the CLI's attack -correlated.
func buildAttack(p requestParams, src stream.Source, ws *mat.Workspace) (recon.StreamReconstructor, error) {
	spec, err := defaultRegistry.LookupAttack(p.Attack)
	if err != nil {
		return nil, badRequest(err)
	}
	noise := core.NoiseModel{Sigma2: p.Sigma * p.Sigma}
	if p.Correlated {
		if p.Attack != "bedr" {
			// Only BE-DR has a correlated-noise variant; silently running
			// the i.i.d. attack instead would hand the caller conclusions
			// about an attack that never ran.
			return nil, badRequest(fmt.Errorf("server: correlated=true requires attack=bedr (%s has no correlated-noise variant)", p.Attack))
		}
		mo, err := stream.Accumulate(src, 1)
		if err != nil {
			return nil, fmt.Errorf("server: covariance pass: %w", err)
		}
		noiseCov, err := core.NoiseShapeFromCov(mo.Covariance(), noise.Sigma2)
		if err != nil {
			return nil, badRequest(err)
		}
		noise = core.NoiseModel{Cov: noiseCov}
	}
	actx := core.AttackContext{Noise: noise, WS: ws}
	if spec.Caps.Streaming {
		return spec.BuildStream(actx)
	}
	a, err := spec.Build(actx)
	if err != nil {
		return nil, badRequest(err)
	}
	return recon.AsStream(a), nil
}

// handleAttack reconstructs an uploaded disguised CSV with one attack and
// streams X̂ back: POST /v1/attack?sigma=&attack=&correlated=&chunk=
func (s *Server) handleAttack(w http.ResponseWriter, r *http.Request) error {
	p, err := s.decodeParams(r, "sigma", "attack", "correlated", "chunk")
	if err != nil {
		return err
	}
	up, src, err := s.spoolAndOpen(r, p.Chunk)
	if err != nil {
		return err
	}
	defer up.Remove()
	defer src.Close()
	return s.pool.Do(r.Context(), func(ws *mat.Workspace) error {
		_, disg, release, err := s.parseOnce(stream.ContextSource{Ctx: r.Context(), Src: src}, len(src.Names()), p.Chunk)
		if err != nil {
			return err
		}
		defer release()
		cs := stream.ContextSource{Ctx: r.Context(), Src: disg}
		attack, err := buildAttack(p, cs, ws)
		if err != nil {
			return err
		}
		sink := &lazyCSVSink{w: w, names: src.Names()}
		if err := attack.ReconstructStream(cs, sink); err != nil {
			return err
		}
		return sink.Flush()
	})
}

// assessCacheKey identifies a fitted assessment: every parameter that can
// change a single response byte — scheme, σ, seed, chunking, battery and
// probe selection, DP calibration and the dataset digest — is part of
// the key. It is sweep.CacheKey, shared so a sweep grid point populates
// (and is served by) the same cache entries as a standalone request.
func assessCacheKey(p requestParams, digest string) string {
	return sweep.CacheKey(sweepParams(p), digest)
}

// handleAssess runs the paper's full loop on an uploaded original data
// set — perturb with the requested scheme, then attack the disguised copy
// with the battery — and reports each attack's reconstruction error:
// POST /v1/assess?sigma=&seed=&scheme=&chunk=&stream=
//
// stream=false (default) loads both copies and runs the in-memory
// battery — by default every resident attack the registry pairs with the
// scheme's noise model (UDR has no correlated-noise variant and drops
// out under scheme=correlated), or exactly the modes named in ?attacks=.
// Utility probes (?utility=kmeans,nbayes,dtree) run after the battery in
// memory mode and price what the defense costs the miner. stream=true
// keeps the assessment out-of-core end to end — only streamable attacks
// may run, and memory stays O(chunk + m²) at any upload size.
func (s *Server) handleAssess(w http.ResponseWriter, r *http.Request) error {
	p, err := s.decodeParams(r, assessParamKeys...)
	if err != nil {
		return err
	}
	up, src, err := s.spoolAndOpen(r, p.Chunk)
	if err != nil {
		return err
	}
	defer up.Remove()
	defer src.Close()

	key := assessCacheKey(p, up.digest)
	if body, ok := s.cache.Get(key); ok {
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("X-Cache", "hit")
		_, err := w.Write(body)
		return err
	}
	// The cross-node result cache sits behind the in-process LRU: a
	// report computed by any node sharing the cluster directory serves
	// this one without recompute (the key is identical by construction).
	if s.cluster != nil {
		if body, ok := s.cluster.Store().CachedResult(key); ok {
			s.cache.Add(key, body)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Cache", "cluster")
			_, err := w.Write(body)
			return err
		}
	}

	var body []byte
	err = s.pool.Do(r.Context(), func(ws *mat.Workspace) error {
		var err error
		body, err = s.runAssessment(r.Context(), src, p, up.digest, ws, nil, true)
		return err
	})
	if err != nil {
		return err
	}
	s.cache.Add(key, body)
	if s.cluster != nil {
		if err := s.cluster.Store().PutCachedResult(key, body); err != nil {
			s.cfg.Log.Printf("randprivd: cluster result cache write: %v", err)
		}
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "miss")
	_, err = w.Write(body)
	return err
}

// assessParamKeys is the query allow-list shared by /v1/assess and
// POST /v1/jobs — the two entry points of the same assessment path.
var assessParamKeys = []string{
	"sigma", "seed", "scheme", "chunk", "stream",
	"attacks", "utility", "epsilon", "delta", "sensitivity", "k",
}

// passesFor counts how many full passes the assessment makes over its
// two chunk streams — sweep.PassesFor, the same accounting the planner
// quotes its amortization win against. runAssessment turns this into the
// progress denominator; the job lifecycle test asserts chunks_done ==
// chunks_total at completion, so a change to the pass structure — or a
// registered StreamPasses that lies about its attack — fails loudly
// instead of silently skewing every progress bar.
func passesFor(p requestParams) int64 {
	return sweep.PassesFor(defaultRegistry, sweepParams(p))
}

// runAssessment is the single compute path behind both the synchronous
// /v1/assess handler and the async job runner: validate the upload, run
// the battery in the requested mode, and marshal the report. Because
// both entry points run exactly these bytes through exactly this code
// with a request-seeded RNG, a job's stored result is byte-identical to
// the synchronous response for the same (CSV, params, seed) — including
// after a crash and re-run.
//
// The validating pass is the only CSV decode: it tees the validated
// chunks into a binary spool (parseOnce), and every later pass over the
// original reads that spool. The values are the same float64s either
// way, so the report bytes are too.
//
// progress, when non-nil, receives cumulative chunk counts across every
// streaming pass (the async status endpoint's chunks_done/chunks_total);
// the total becomes known right after the validation pass.
//
// delegable allows a streamed assessment to delegate its scoring pass
// to the cluster. It is only honored with nil progress (the delegated
// pass bypasses the chunk counters, which would break the chunks_done ==
// chunks_total invariant) and must be false inside a cluster task runner
// (a task enqueuing sub-tasks deadlocks a lone worker on its own queue).
func (s *Server) runAssessment(ctx context.Context, src *dataset.ChunkSource, p requestParams, digest string, ws *mat.Workspace, progress func(done, total int64), delegable bool) ([]byte, error) {
	var done, total int64
	note := func() {
		if progress != nil {
			progress(done, total)
		}
	}
	wrap := func(raw stream.Source) stream.Source {
		ctxd := stream.ContextSource{Ctx: ctx, Src: raw}
		if progress == nil {
			return ctxd
		}
		return &stream.CountingSource{Src: ctxd, OnChunk: func(chunks, rows int64) {
			done++
			note()
		}}
	}
	names := src.Names()
	rows, spool, release, err := s.parseOnce(wrap(src), len(names), p.Chunk)
	if err != nil {
		return nil, err
	}
	defer release()
	chunk := int64(p.Chunk)
	total = (rows + chunk - 1) / chunk * passesFor(p)
	note()
	rep, utilities, err := s.assess(ctx, wrap(spool), src.Path(), names, p, ws, wrap, delegable && progress == nil)
	if err != nil {
		return nil, err
	}
	// A context that died mid-battery is absorbed by the evaluators into
	// per-attack error fields ("context canceled" as a result!). That
	// must fail the whole assessment: the synchronous path would
	// otherwise cache and serve a half-run report, and a job would be
	// marked done with one — breaking the byte-equality contract when a
	// shutdown races job completion.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sweep.MarshalReport(rep, utilities, sweepParams(p), rows, len(names), digest)
}

// assess perturbs the validated original stream into a binary spool and
// runs the attack battery against it, in the requested mode. wrap
// decorates every additional source the battery opens (the disguised
// spool) with the caller's cancellation and progress accounting.
// csvPath is the original upload's backing CSV ("" for reader-backed
// sources) — the handle a delegable streamed assessment uses to put the
// original into the cluster's content-addressed store.
func (s *Server) assess(ctx context.Context, orig stream.Source, csvPath string, names []string, p requestParams, ws *mat.Workspace, wrap func(stream.Source) stream.Source, delegable bool) (*core.PrivacyReport, []core.UtilityResult, error) {
	bd, err := buildDefense(p, orig)
	if err != nil {
		return nil, nil, err
	}
	// Disguise into a second spool so the attacks can re-read it.
	disgPath, err := s.writeSpool("disg", len(names), func(sink stream.Sink) error {
		return bd.Scheme.PerturbStream(orig, sink, requestRNG(p.Seed))
	})
	if err != nil {
		return nil, nil, err
	}
	defer s.fs.Remove(disgPath)
	disg, err := s.openSpool(disgPath, p.Chunk)
	if err != nil {
		return nil, nil, err
	}
	defer disg.Close()

	// A streamed battery stays out-of-core: NDR baseline plus the
	// selected streamable attacks, never materializing either data set,
	// with each attack running its own pass 1 (nil sketch). A delegable
	// multi-attack battery first tries to fan its scoring pass out to
	// the cluster (clusterScore); any failure falls through to the
	// serial path, which is byte-identical by construction.
	if p.Stream {
		if delegable && s.cluster != nil {
			if rep, delegated, err := s.clusterScore(ctx, orig, csvPath, disgPath, bd, p); delegated || err != nil {
				return rep, nil, err
			}
		}
		env := sweep.Env{Reg: defaultRegistry, WS: ws}
		rep, err := env.EvaluateStreamPoint(sweepParams(p), orig, wrap(disg), bd, nil, nil)
		return rep, nil, err
	}
	return s.assessMemory(ctx, orig, wrap(disg), bd, p, ws)
}

// assessMemory loads both copies, runs the selected battery (including
// the attacks that need resident data), then prices the defense with the
// requested utility probes on the same resident pair.
func (s *Server) assessMemory(ctx context.Context, orig, disg stream.Source, bd core.BuiltDefense, p requestParams, ws *mat.Workspace) (*core.PrivacyReport, []core.UtilityResult, error) {
	collect := func(src stream.Source) (*mat.Dense, error) {
		if err := src.Reset(); err != nil {
			return nil, err
		}
		var col stream.Collector
		for {
			chunk, err := src.Next()
			if err == io.EOF {
				return col.Data, nil
			}
			if err != nil {
				return nil, err
			}
			if err := col.Append(chunk); err != nil {
				return nil, err
			}
		}
	}
	origData, err := collect(orig)
	if err != nil {
		return nil, nil, err
	}
	disgData, err := collect(disg)
	if err != nil {
		return nil, nil, err
	}
	env := sweep.Env{Reg: defaultRegistry, WS: ws}
	return env.EvaluateMemoryPoint(ctx, sweepParams(p), origData, disgData, bd)
}

// handleHealthz reports liveness only: GET /healthz. "degraded" is true
// while the cluster delegation breaker is open (everything is being
// served through the byte-identical serial path) — the one operational
// bit a load balancer or probe should act on. Every other gauge moved to
// GET /v1/status; this release keeps /healthz itself at its old path so
// existing probes keep working, but dashboards reading pool/cache/job
// gauges from it must switch to /v1/status.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	degraded := false
	if s.breaker != nil {
		degraded = s.breaker.Open(time.Now().UTC())
	}
	writeJSON(w, struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
	}{Status: "ok", Degraded: degraded})
}

// handleStatus reports the operational gauges: GET /v1/status. The
// payload is the gauge section /healthz used to carry — pool depth,
// cache counters, job and sweep totals, and (in cluster mode) per-node
// heartbeats with task-queue depths per task kind.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	hits, misses, entries := s.cache.Stats()
	jobsQueued, jobsRunning, jobsTerminal := s.jobs.Stats()
	pointsDone, pointsQueued := s.jobs.PointTotals()
	resp := struct {
		Workers       int    `json:"workers"`
		QueueDepth    int    `json:"queue_depth"`
		Inflight      int64  `json:"inflight"`
		CacheHits     uint64 `json:"cache_hits"`
		CacheMisses   uint64 `json:"cache_misses"`
		CacheEntries  int    `json:"cache_entries"`
		CacheCapacity int    `json:"cache_capacity"`
		JobWorkers    int    `json:"job_workers"`
		JobsQueued    int    `json:"jobs_queued"`
		JobsRunning   int    `json:"jobs_running"`
		JobsFinished  int    `json:"jobs_finished"`
		// Sweep gauges: grid points still owed by live sweep jobs and
		// points already resolved by them (zeroed as jobs reach a
		// terminal state).
		SweepPointsQueued int64 `json:"sweep_points_queued"`
		SweepPointsDone   int64 `json:"sweep_points_done"`
		// Cluster section: per-node heartbeat gauges and task-queue
		// depths; absent on single-process servers.
		Cluster *clusterStatus `json:"cluster,omitempty"`
	}{
		Workers:           s.cfg.Workers,
		QueueDepth:        s.cfg.QueueDepth,
		Inflight:          s.pool.Inflight(),
		CacheHits:         hits,
		CacheMisses:       misses,
		CacheEntries:      entries,
		CacheCapacity:     s.cfg.CacheEntries,
		JobWorkers:        s.cfg.JobWorkers,
		JobsQueued:        jobsQueued,
		JobsRunning:       jobsRunning,
		JobsFinished:      jobsTerminal,
		SweepPointsQueued: pointsQueued,
		SweepPointsDone:   pointsDone,
		Cluster:           s.clusterHealth(),
	}
	writeJSON(w, resp)
}

// handleSchemes lists what this build serves, enumerated straight from
// the operator registry so the catalogue can never drift from what
// actually dispatches: GET /v1/schemes
func (s *Server) handleSchemes(w http.ResponseWriter, r *http.Request) {
	type entry struct {
		Name        string `json:"name"`
		Streaming   bool   `json:"streaming"`
		NeedsCov    bool   `json:"needs_cov,omitempty"`
		Seeded      bool   `json:"seeded,omitempty"`
		Description string `json:"description"`
	}
	resp := struct {
		Schemes   []entry `json:"schemes"`
		Attacks   []entry `json:"attacks"`
		Utilities []entry `json:"utilities"`
	}{}
	for _, mode := range defaultRegistry.DefenseModes() {
		spec, _ := defaultRegistry.LookupDefense(mode)
		resp.Schemes = append(resp.Schemes, entry{
			Name: mode, Streaming: spec.Caps.Streaming, NeedsCov: spec.Caps.NeedsCov,
			Seeded: spec.Caps.Seeded, Description: spec.Description,
		})
	}
	for _, mode := range defaultRegistry.AttackModes() {
		spec, _ := defaultRegistry.LookupAttack(mode)
		resp.Attacks = append(resp.Attacks, entry{
			Name: mode, Streaming: spec.Caps.Streaming, NeedsCov: spec.Caps.NeedsCov,
			Seeded: spec.Caps.Seeded, Description: spec.Description,
		})
	}
	for _, mode := range defaultRegistry.UtilityModes() {
		spec, _ := defaultRegistry.LookupUtility(mode)
		resp.Utilities = append(resp.Utilities, entry{
			Name: mode, Streaming: spec.Caps.Streaming,
			Seeded: spec.Caps.Seeded, Description: spec.Description,
		})
	}
	writeJSON(w, resp)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	// The values are plain structs; Encode can only fail on the wire,
	// where there is nothing left to report to.
	_ = enc.Encode(v)
}
