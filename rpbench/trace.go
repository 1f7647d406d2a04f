package main

import (
	"context"
	"io"
	"sort"
	"sync"
	"time"

	"randpriv/internal/cluster"
	"randpriv/internal/mat"
	"randpriv/internal/recon"
	"randpriv/internal/stream"
)

// span is one traced interval. Spans of one replayed op share op; parent
// is the index of the enclosing span, or -1 for a root.
type span struct {
	op         int
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     int
}

// tracer records spans in memory around the calls the replay makes into
// each layer. A nil *tracer is valid and records nothing: the replay
// without decorators runs exactly the same code with a nil tracer.
//
// Spans nest by call order on the replay goroutine (a stack); the only
// span recorded off that goroutine, the cluster task runner's, is queued
// under a mutex and attached to its enclosing await span afterwards.
type tracer struct {
	epoch  time.Time
	op     int
	spans  []span
	stack  []int
	counts map[string]float64

	mu     sync.Mutex
	remote map[string][2]time.Duration // cluster task id -> runner interval
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: map[string]float64{}, remote: map[string][2]time.Duration{}}
}

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// begin opens a span under the innermost open one.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{op: t.op, name: name, start: t.now(), parent: parent})
	t.stack = append(t.stack, len(t.spans)-1)
	return len(t.spans) - 1
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	t.spans[i].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span.
func (t *tracer) do(name string, f func() error) error {
	i := t.begin(name)
	defer t.end(i)
	return f()
}

func (t *tracer) count(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// selfTimes sums each span name's self time — its duration minus the
// part its direct children cover — in milliseconds.
func (t *tracer) selfTimes() map[string]float64 {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := make(map[string]float64)
	for i, s := range t.spans {
		out[s.name] += float64(s.end-s.start-child[i]) / float64(time.Millisecond)
	}
	return out
}

// durations returns the durations, in milliseconds, of every span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(time.Millisecond))
		}
	}
	return out
}

// csvSource decorates a dataset.ChunkSource: every Next (the CSV decode)
// and Reset (reopen plus header) is a dataset.parse span, and every
// Reset counts one pass over the CSV.
type csvSource struct {
	t     *tracer
	src   stream.Source
	bytes float64
}

func traceCSV(t *tracer, src stream.Source, size int) stream.Source {
	if t == nil {
		return src
	}
	return &csvSource{t: t, src: src, bytes: float64(size)}
}

func (c *csvSource) Next() (*mat.Dense, error) {
	i := c.t.begin("dataset.parse")
	defer c.t.end(i)
	return c.src.Next()
}

func (c *csvSource) Reset() error {
	c.t.count("dataset.csv_passes", 1)
	c.t.count("dataset.parse_mb", c.bytes/(1<<20))
	i := c.t.begin("dataset.parse")
	defer c.t.end(i)
	return c.src.Reset()
}

// spanSink decorates a stream.Sink: every Append is a span of the given
// name (dataset.encode around the CSV writer, core.score around the
// evaluator's scoring sink).
type spanSink struct {
	t    *tracer
	name string
	sink stream.Sink
}

func traceSink(t *tracer, name string, sink stream.Sink) stream.Sink {
	if t == nil {
		return sink
	}
	return &spanSink{t: t, name: name, sink: sink}
}

func (s *spanSink) Append(chunk *mat.Dense) error {
	i := s.t.begin(s.name)
	defer s.t.end(i)
	return s.sink.Append(chunk)
}

// passSource sits between a streaming attack and its disguised source and
// turns the attack's pass structure into spans: recon.sketch from the
// first Reset to the end of pass 1, recon.solve from there to the second
// Reset (the eigensolve and estimator build), recon.project from the
// second Reset until the attack returns.
type passSource struct {
	t      *tracer
	src    stream.Source
	resets int
	open   int // the pass span currently open, or -1
}

var passSpans = []string{"recon.sketch", "recon.project"}

func (p *passSource) switchTo(name string) {
	p.t.end(p.open)
	p.open = -1
	if name != "" {
		p.open = p.t.begin(name)
	}
}

func (p *passSource) Reset() error {
	if p.resets < len(passSpans) {
		p.switchTo(passSpans[p.resets])
	}
	p.resets++
	return p.src.Reset()
}

func (p *passSource) Next() (*mat.Dense, error) {
	chunk, err := p.src.Next()
	if err == io.EOF && p.resets == 1 {
		p.switchTo("recon.solve")
	}
	return chunk, err
}

// tracedAttack decorates a recon.StreamReconstructor with a span per
// attack, per-pass spans, and a core.score span around every append into
// the evaluator's scoring sink. It does not carry recon.Sketched: the
// replayed assessment hands the evaluator no shared sketch, so every
// attack makes its own two passes, as in the server.
type tracedAttack struct {
	t     *tracer
	inner recon.StreamReconstructor
}

func traceAttacks(t *tracer, attacks []recon.StreamReconstructor) []recon.StreamReconstructor {
	if t == nil {
		return attacks
	}
	out := make([]recon.StreamReconstructor, len(attacks))
	for i, a := range attacks {
		out[i] = tracedAttack{t: t, inner: a}
	}
	return out
}

func (a tracedAttack) Name() string { return a.inner.Name() }

func (a tracedAttack) ReconstructStream(src stream.Source, sink stream.Sink) error {
	i := a.t.begin("recon.attack")
	defer a.t.end(i)
	ps := &passSource{t: a.t, src: src, open: -1}
	err := a.inner.ReconstructStream(ps, traceSink(a.t, "core.score", sink))
	ps.switchTo("")
	return err
}

// traceRunner decorates a cluster.TaskRunner: each run's interval is
// queued by task id, to be attached under the replay's await span.
func traceRunner(t *tracer, r cluster.TaskRunner) cluster.TaskRunner {
	if t == nil {
		return r
	}
	return func(ctx context.Context, st *cluster.Store, task *cluster.Task) ([]byte, error) {
		start := t.now()
		body, err := r(ctx, st, task)
		t.mu.Lock()
		t.remote[task.ID] = [2]time.Duration{start, t.now()}
		t.mu.Unlock()
		return body, err
	}
}

// attachRemote records the runner interval of task id as a
// cluster.task_run span under the open span parent.
func (t *tracer) attachRemote(parent int, id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	iv, ok := t.remote[id]
	delete(t.remote, id)
	t.mu.Unlock()
	if ok {
		t.spans = append(t.spans, span{op: t.op, name: "cluster.task_run", start: iv[0], end: iv[1], parent: parent})
	}
}

// median of a sample (0 for an empty one).
func median(v []float64) float64 { return quantile(v, 0.5) }

// quantile is the nearest-rank q-quantile.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
