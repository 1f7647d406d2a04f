package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"time"

	"randpriv/internal/server"
)

// setupEvery is how often, during the measured phase, the sender starts
// and stops a second server on fresh state directories between two ops;
// setup_s is the fastest of those cold starts. A start is a few hundred
// microseconds of syscalls and one loopback round trip, and its speed
// follows the host's load from one second to the next: the median of 31
// back-to-back starts moved 2x within one process. Spread over the whole
// phase, the starts see the host as the ops do, and the fastest of them
// is the one that host contention, which only adds time, moves least.
const setupEvery = 100 * time.Millisecond

// live is a started server behind a loopback listener.
type live struct {
	srv  *server.Server
	http *http.Server
	base string
	done chan struct{}
	logs *logLines
}

func (l *live) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.http.Shutdown(ctx) // the listener closes either way; nothing else to report
	<-l.done
	l.srv.Close()
}

// logLines receives the server's log and keeps the first few lines that
// report a failed request, for the run's output.
type logLines struct {
	mu    sync.Mutex
	lines []string
}

func (c *logLines) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if line := string(p); strings.Contains(line, " -> ") && len(c.lines) < 20 {
		c.lines = append(c.lines, strings.TrimSpace(line))
	}
	return len(p), nil
}

func (c *logLines) snapshot() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.lines...)
}

func discardLog() *log.Logger { return log.New(io.Discard, "", 0) }

// startServer runs server.New on fresh state directories under dir,
// serves it on a loopback listener and waits for /healthz. It returns
// the time from New to the first healthy answer.
func startServer(dir string, client *http.Client) (*live, time.Duration, error) {
	cfg := server.Config{
		SpoolDir: filepath.Join(dir, "spool"),
		JobsDir:  filepath.Join(dir, "jobs"),
	}
	if err := os.MkdirAll(cfg.SpoolDir, 0o755); err != nil {
		return nil, 0, err
	}
	logs := &logLines{}
	cfg.Log = log.New(logs, "", 0)
	t0 := time.Now()
	srv, err := server.New(cfg)
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, 0, err
	}
	l := &live{srv: srv, http: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan struct{}), logs: logs}
	go func() {
		defer close(l.done)
		_ = l.http.Serve(ln) // returns http.ErrServerClosed on stop
	}()
	resp, err := client.Get(l.base + "/healthz")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("healthz: %s", resp.Status)
		}
	}
	setup := time.Since(t0)
	if err != nil {
		l.stop()
		return nil, 0, err
	}
	return l, setup, nil
}

func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     nproc(),
		MaxIdleConnsPerHost: nproc(),
		DisableCompression:  true,
	}}
}

// statusJSON is the part of GET /v1/status the correctness gate reads.
type statusJSON struct {
	CacheHits   uint64 `json:"cache_hits"`
	CacheMisses uint64 `json:"cache_misses"`
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return json.Unmarshal(body, v)
}

// jobStatus is the GET /v1/jobs/{id} body.
type jobStatus struct {
	ID       string     `json:"id"`
	State    string     `json:"state"`
	Created  time.Time  `json:"created"`
	Started  *time.Time `json:"started"`
	Finished *time.Time `json:"finished"`
}

func (s jobStatus) terminal() bool {
	return s.State == "done" || s.State == "failed" || s.State == "canceled"
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opResult is one op as the client saw it.
type opResult struct {
	input   int
	latency float64 // ms
	failed  bool
	// Jobs: 202 latency and the server's created→started→finished split.
	submit, queue, run float64
}

// e2eRun is one untraced run of a workload.
type e2eRun struct {
	ops    []opResult
	win    windowDelta
	setup  []float64 // s, one per cold start
	status statusJSON
	logs   []string
	// bodies holds the first HTTP body seen for each distinct input.
	bodies map[int][]byte
	// checks are gate failures beyond per-op body mismatches.
	checks []string
}

func (r *e2eRun) failedOps() int {
	n := len(r.checks)
	for _, o := range r.ops {
		if o.failed {
			n++
		}
	}
	return n
}

func (r *e2eRun) latencies() []float64 {
	var out []float64
	for _, o := range r.ops {
		if !o.failed {
			out = append(out, o.latency)
		}
	}
	return out
}

// runE2E starts the server, drives the workload for the given duration,
// and gates the results against want, the expected body of each
// distinct input.
func runE2E(workload, dir string, in *inputs, want [][]byte, seconds int) (*e2eRun, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	run := &e2eRun{bodies: map[int][]byte{}}
	l, setup, err := startServer(filepath.Join(dir, "server"), client)
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	defer l.stop()
	run.setup = append(run.setup, setup.Seconds())
	runtime.GC()

	d := sender{client: client, base: l.base, in: in, want: want, run: run, dir: dir}
	win := openWindow()
	d.lastStart = time.Now()
	deadline := time.Now().Add(time.Duration(seconds) * time.Second)
	switch workload {
	case "assess_stream":
		err = d.assessLoop(deadline)
	case "sweep_grid":
		err = d.sweepLoop(deadline)
	}
	run.win = win.close().minus(d.aside)
	if err != nil {
		return nil, err
	}
	if err := getJSON(client, l.base+"/v1/status", &run.status); err != nil {
		return nil, err
	}
	run.logs = l.logs.snapshot()
	return run, nil
}

// sender sends a workload's ops and checks each response.
type sender struct {
	client *http.Client
	base   string
	in     *inputs
	want   [][]byte
	run    *e2eRun

	dir       string // where the cold starts' state directories go
	lastStart time.Time
	aside     windowDelta // what the cold starts consumed
}

// between runs a cold start, then stops that server, when setupEvery
// has passed since the last one. It runs between ops, outside every
// latency sample, and its CPU, wall time and allocations are taken out
// of the phase's totals.
func (d *sender) between() error {
	if time.Since(d.lastStart) < setupEvery {
		return nil
	}
	w := snapshot()
	l, setup, err := startServer(filepath.Join(d.dir, fmt.Sprintf("server-%d", len(d.run.setup))), d.client)
	if err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	l.stop()
	d.run.setup = append(d.run.setup, setup.Seconds())
	d.aside = d.aside.plus(w.since())
	d.lastStart = time.Now()
	return nil
}

// check compares a response body with the expected bytes of input i.
func (d *sender) check(i int, body []byte) bool {
	if _, ok := d.run.bodies[i]; !ok {
		d.run.bodies[i] = body
	}
	return bytes.Equal(body, d.want[i])
}

func (d *sender) post(url, contentType string, body []byte) (int, []byte, error) {
	resp, err := d.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// assessLoop is the closed loop of assess_stream: one client, each op a
// synchronous streamed assessment, timed around the round trip.
func (d *sender) assessLoop(deadline time.Time) error {
	for k := 0; time.Now().Before(deadline); k++ {
		i := k % len(d.in.ops)
		op := d.in.ops[i]
		t0 := time.Now()
		code, body, err := d.post(d.base+"/v1/assess?"+op.query, "text/csv", op.up.body)
		lat := ms(time.Since(t0))
		if err != nil {
			return err
		}
		d.run.ops = append(d.run.ops, opResult{input: i, latency: lat, failed: code != http.StatusOK || !d.check(i, body)})
		if err := d.between(); err != nil {
			return err
		}
	}
	return nil
}

// submit posts a job and decodes the 202 status.
func (d *sender) submit(url, contentType string, body []byte) (jobStatus, error) {
	var st jobStatus
	code, out, err := d.post(url, contentType, body)
	if err != nil {
		return st, err
	}
	if code != http.StatusAccepted {
		return st, fmt.Errorf("submit: status %d: %s", code, out)
	}
	return st, json.Unmarshal(out, &st)
}

// finish fetches a terminal job's result, checks it, and deletes the
// job. It reports whether the op succeeded.
func (d *sender) finish(st jobStatus, i int) bool {
	ok := st.State == "done" && st.Started != nil && st.Finished != nil
	if ok {
		resp, err := d.client.Get(d.base + "/v1/jobs/" + st.ID + "/result")
		if err != nil {
			return false
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		ok = err == nil && resp.StatusCode == http.StatusOK && d.check(i, body)
	}
	// Best effort: a job left behind costs only disk in the run's state
	// directory, which is removed when the run ends.
	req, err := http.NewRequest(http.MethodDelete, d.base+"/v1/jobs/"+st.ID, nil)
	if err == nil {
		if resp, err := d.client.Do(req); err == nil {
			resp.Body.Close()
		}
	}
	return ok
}

// sweepPollEvery is the poll period once a sweep job is expected to be
// near completion. Job latency is read from the server's timestamps, so
// the period bounds only the client's idle time between ops, never a
// latency sample.
const sweepPollEvery = 5 * time.Millisecond

// jobTimeout fails a run whose job never reaches a terminal state.
const jobTimeout = time.Minute

// sweepLoop is the closed loop of sweep_grid: one client submits a
// multipart sweep job, polls lazily until the job is terminal, then
// fetches, checks and deletes the result outside the timed span.
func (d *sender) sweepLoop(deadline time.Time) error {
	var recent []float64 // server-side latencies, to schedule the first poll
	for k := 0; time.Now().Before(deadline); k++ {
		i := k % len(d.in.ops)
		t0 := time.Now()
		op := d.in.ops[i]
		st, err := d.submit(d.base+"/v1/jobs", op.ctype, op.multipart)
		if err != nil {
			return err
		}
		submit := ms(time.Since(t0))
		// Sleep until 90% of the recent median latency, then poll.
		if n := len(recent); n > 0 {
			time.Sleep(time.Duration(0.9*median(recent[max(0, n-9):])*float64(time.Millisecond)) - time.Since(t0))
		}
		for !st.terminal() {
			if time.Since(t0) > jobTimeout {
				return fmt.Errorf("sweep job %s not finished after %v", st.ID, jobTimeout)
			}
			time.Sleep(sweepPollEvery)
			if err := getJSON(d.client, d.base+"/v1/jobs/"+st.ID, &st); err != nil {
				return err
			}
		}
		o := opResult{input: i, submit: submit}
		if st.Started != nil && st.Finished != nil {
			o.latency = ms(st.Finished.Sub(t0))
			o.queue = ms(st.Started.Sub(st.Created))
			o.run = ms(st.Finished.Sub(*st.Started))
			recent = append(recent, o.latency)
		}
		o.failed = !d.finish(st, i)
		d.run.ops = append(d.run.ops, o)
		if err := d.between(); err != nil {
			return err
		}
	}
	return nil
}
