package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"randpriv/internal/cluster"
)

// clusterConfig returns a cluster-mode server Config over a fresh state
// directory with n embedded claim loops.
func clusterConfig(t *testing.T, n int) Config {
	t.Helper()
	return Config{
		ClusterDir:     t.TempDir(),
		NodeID:         fmt.Sprintf("test-node-%dw", n),
		ClusterWorkers: n,
	}
}

// TestClusterAssessByteIdentity is the server-level identity contract:
// a cluster-mode node produces byte-identical /v1/assess responses and
// job results to a single-process server, for both memory and streamed
// batteries. With 1 claim loop jobs are delegated and the streamed
// scoring pass runs serially; the 2-loop subtest is the one that fans
// the scoring pass out as score tasks.
func TestClusterAssessByteIdentity(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	queries := []string{
		"?sigma=5&seed=3&chunk=32",
		"?sigma=5&seed=3&chunk=32&stream=1",
		"?sigma=5&seed=3&chunk=32&stream=1&scheme=correlated",
	}
	// Jobs get parameters no sync assess has touched, so the delegated
	// task actually executes instead of resolving from the result cache
	// the sync request just warmed.
	jobQueries := []string{
		"?sigma=7&seed=2&chunk=32",
		"?sigma=7&seed=2&chunk=32&stream=1",
	}

	// Golden bytes from a server with no cluster at all.
	_, baseTS := newTestServer(t, Config{})
	golden := make(map[string][]byte, len(queries)+len(jobQueries))
	for _, q := range append(append([]string{}, queries...), jobQueries...) {
		status, _, body := post(t, baseTS, "/v1/assess"+q, in)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d, body %s", q, status, body)
		}
		golden[q] = body
	}

	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("%d-workers", workers), func(t *testing.T) {
			_, ts := newTestServer(t, clusterConfig(t, workers))
			for _, q := range queries {
				status, hdr, body := post(t, ts, "/v1/assess"+q, in)
				if status != http.StatusOK {
					t.Fatalf("%s: status %d, body %s", q, status, body)
				}
				if !bytes.Equal(body, golden[q]) {
					t.Errorf("%s: cluster assess differs from single-process golden", q)
				}
				if hdr.Get("X-Cache") != "miss" {
					t.Errorf("%s: X-Cache = %q, want miss on first compute", q, hdr.Get("X-Cache"))
				}
			}

			// Async jobs go through the task queue (delegated to an
			// embedded claim loop) and must store the same bytes.
			for _, q := range jobQueries {
				js := submitJob(t, ts, q, in)
				final := waitJob(t, ts, js.ID)
				if final.State != "done" {
					t.Fatalf("%s: delegated job state = %s (error %q)", q, final.State, final.Error)
				}
				rstatus, jobBody := getResult(t, ts, js.ID)
				if rstatus != http.StatusOK {
					t.Fatalf("%s: result status %d", q, rstatus)
				}
				if !bytes.Equal(jobBody, golden[q]) {
					t.Errorf("%s: delegated job result differs from single-process golden", q)
				}
			}
		})
	}
}

// TestPureCoordinatorWithoutWorkersServesLocally: a coordinator with no
// embedded claim loops and no worker attached has nobody to hand work
// to. A plain job, a sweep job and a streamed sync /v1/assess must each
// run locally at once — byte-identical to the single-process golden and
// well inside ClusterDelegateTimeout — and nothing may be left queued.
func TestPureCoordinatorWithoutWorkersServesLocally(t *testing.T) {
	in := testCSV(t, 240, 4, 2, 9)
	const assessQ = "?sigma=5&seed=3&chunk=32&stream=1"
	const jobQ = "?sigma=7&seed=2&chunk=32&stream=1"
	const spec = `{"defenses":[{"scheme":"additive","sigmas":[4,5]},{"scheme":"correlated","sigmas":[5]}],"seeds":[3],"chunk":32,"stream":true}`

	_, plain := newTestServer(t, Config{})
	golden := make(map[string][]byte, 2)
	for _, q := range []string{assessQ, jobQ} {
		status, _, body := post(t, plain, "/v1/assess"+q, in)
		if status != http.StatusOK {
			t.Fatalf("baseline %s: status %d, body %s", q, status, body)
		}
		golden[q] = body
	}
	goldenSweep := goldenSweepBytes(t, spec, in)

	s, ts := newTestServer(t, clusterConfig(t, -1))
	budget := s.cfg.ClusterDelegateTimeout / 3

	js := submitJob(t, ts, jobQ, in)
	if final := waitJobWithin(t, ts, js.ID, budget); final.State != "done" {
		t.Fatalf("job = %s (error %q), want done", final.State, final.Error)
	}
	if rs, body := getResult(t, ts, js.ID); rs != http.StatusOK || !bytes.Equal(body, golden[jobQ]) {
		t.Errorf("job result (status %d) differs from the single-process golden", rs)
	}

	status, _, out := postSweep(t, ts, "/v1/jobs", spec, in)
	if status != http.StatusAccepted {
		t.Fatalf("sweep submit = %d, body %s", status, out)
	}
	var sj jobStatus
	if err := json.Unmarshal(out, &sj); err != nil {
		t.Fatal(err)
	}
	if final := waitJobWithin(t, ts, sj.ID, budget); final.State != "done" {
		t.Fatalf("sweep = %s (error %q), want done", final.State, final.Error)
	}
	if rs, body := getResult(t, ts, sj.ID); rs != http.StatusOK || !bytes.Equal(body, goldenSweep) {
		t.Errorf("sweep result (status %d) differs from the single-process golden", rs)
	}

	start := time.Now()
	status, _, got := post(t, ts, "/v1/assess"+assessQ, in)
	if status != http.StatusOK {
		t.Fatalf("sync assess: status %d, body %s", status, got)
	}
	if !bytes.Equal(got, golden[assessQ]) {
		t.Error("sync assess differs from the single-process golden")
	}
	if d := time.Since(start); d > budget {
		t.Errorf("sync assess took %v, want under %v", d, budget)
	}

	if p, c, d := s.cluster.Store().QueueStats(); p+c+d != 0 {
		t.Errorf("queue pending=%d claimed=%d done=%d, want nothing enqueued", p, c, d)
	}
}

// TestClusterRunnersCoverEnqueuedKinds: every task kind the server
// enqueues has a runner in ClusterRunners, the one list coordinator
// loops and worker processes both register from. A 2-loop node drives
// all three delegation paths (a job, a sweep and a fanned-out scoring
// pass); the kinds on disk must be exactly the listed ones.
func TestClusterRunnersCoverEnqueuedKinds(t *testing.T) {
	s, ts := newTestServer(t, clusterConfig(t, 2))
	in := testCSV(t, 120, 4, 2, 5)

	if status, _, body := post(t, ts, "/v1/assess?sigma=5&seed=3&chunk=32&stream=1", in); status != http.StatusOK {
		t.Fatalf("sync assess: status %d, body %s", status, body)
	}
	js := submitJob(t, ts, "?sigma=6&seed=4&chunk=32", in)
	if final := waitJob(t, ts, js.ID); final.State != "done" {
		t.Fatalf("job = %s (error %q), want done", final.State, final.Error)
	}
	runSweep(t, ts, `{"defenses":[{"scheme":"additive","sigmas":[7,8]}],"seeds":[5],"chunk":32,"stream":true}`, in)

	kinds := s.cluster.Store().QueueStatsByKind()
	runners := s.ClusterRunners()
	for kind := range kinds {
		if _, ok := runners[kind]; !ok {
			t.Errorf("server enqueued %q tasks, but ClusterRunners has no runner for them", kind)
		}
	}
	for kind := range runners {
		if kinds[kind].Done == 0 {
			t.Errorf("no %q task completed; the test no longer drives that delegation path", kind)
		}
	}
}

// lockedLog is a goroutine-safe log sink for asserting on server logs.
type lockedLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestClusterScoreDelegationMatchesGolden: with two embedded claim loops
// a streamed assessment's scoring pass really is fanned out — one score
// task per attack, each reading the disguised copy from the CAS as a
// binary spool — and the merged report still matches the committed
// single-process golden byte for byte.
func TestClusterScoreDelegationMatchesGolden(t *testing.T) {
	logs := &lockedLog{}
	cfg := clusterConfig(t, 2)
	cfg.Log = log.New(logs, "", 0)
	s, ts := newTestServer(t, cfg)
	in := goldenCSV(t)
	for _, name := range []string{"assess_stream_additive", "assess_stream_correlated"} {
		var query string
		for _, tc := range assessGoldenCases {
			if tc.name == name {
				query = tc.query
			}
		}
		before := s.cluster.Store().QueueStatsByKind()[cluster.TaskScore].Done
		status, _, out := post(t, ts, "/v1/assess?"+query, in)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, status, out)
		}
		checkGolden(t, name, out)
		if done := s.cluster.Store().QueueStatsByKind()[cluster.TaskScore].Done - before; done != 2 {
			t.Errorf("%s: %d score tasks completed, want 2 (one per streamed attack)", name, done)
		}
	}
	if strings.Contains(logs.String(), "computing locally") {
		t.Errorf("a delegation fell back to the serial path:\n%s", logs.String())
	}
}

// TestClusterSharedResultCache pins the cross-node cache: two server
// processes over ONE cluster directory, where the second serves the
// first's computed report without recompute (X-Cache: cluster), and a
// delegated repeat job resolves from the shared cache too.
func TestClusterSharedResultCache(t *testing.T) {
	dir := t.TempDir()
	mk := func(node string) *httptest.Server {
		_, ts := newTestServer(t, Config{ClusterDir: dir, NodeID: node, ClusterWorkers: 1})
		return ts
	}
	a := mk("node-a")
	b := mk("node-b")

	in := testCSV(t, 160, 3, 2, 4)
	const q = "?sigma=5&seed=3&chunk=32&stream=1"
	statusA, hdrA, bodyA := post(t, a, "/v1/assess"+q, in)
	if statusA != http.StatusOK || hdrA.Get("X-Cache") != "miss" {
		t.Fatalf("node-a: status %d, X-Cache %q", statusA, hdrA.Get("X-Cache"))
	}
	statusB, hdrB, bodyB := post(t, b, "/v1/assess"+q, in)
	if statusB != http.StatusOK {
		t.Fatalf("node-b: status %d, body %s", statusB, bodyB)
	}
	if hdrB.Get("X-Cache") != "cluster" {
		t.Errorf("node-b X-Cache = %q, want cluster (served from the shared result cache)", hdrB.Get("X-Cache"))
	}
	if !bytes.Equal(bodyA, bodyB) {
		t.Errorf("nodes served different bytes for the same assessment")
	}
}

// TestStatusClusterSection asserts the per-node gauges surface on
// GET /v1/status: node identity, alive worker count, queue depths and
// one heartbeat row per node.
func TestStatusClusterSection(t *testing.T) {
	_, ts := newTestServer(t, clusterConfig(t, 2))
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h struct {
		Cluster *struct {
			Node         string `json:"node"`
			AliveWorkers int    `json:"alive_workers"`
			TasksPending int    `json:"tasks_pending"`
			Nodes        []struct {
				Node  string `json:"node"`
				Role  string `json:"role"`
				Alive bool   `json:"alive"`
			} `json:"nodes"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Cluster == nil {
		t.Fatal("/v1/status has no cluster section on a cluster-mode server")
	}
	if h.Cluster.Node != "test-node-2w" {
		t.Errorf("cluster.node = %q", h.Cluster.Node)
	}
	if h.Cluster.AliveWorkers != 2 {
		t.Errorf("alive_workers = %d, want 2 embedded claim loops", h.Cluster.AliveWorkers)
	}
	// Coordinator heartbeat + 2 embedded workers = 3 node rows, all live.
	if len(h.Cluster.Nodes) != 3 {
		t.Fatalf("node rows = %d, want 3", len(h.Cluster.Nodes))
	}
	for _, n := range h.Cluster.Nodes {
		if !n.Alive {
			t.Errorf("node %s (%s) reported dead right after start", n.Node, n.Role)
		}
	}

	// And absent without a cluster.
	_, plain := newTestServer(t, Config{})
	resp2, err := http.Get(plain.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var h2 struct {
		Cluster *struct{} `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&h2); err != nil {
		t.Fatal(err)
	}
	if h2.Cluster != nil {
		t.Error("single-process /v1/status grew a cluster section")
	}
}

// TestStatusGaugeStorm hammers submit/poll/cancel from 32 goroutines
// while reading /v1/status: the job gauges must never go negative and
// must never sum to more jobs than were ever submitted — the gauge
// arithmetic is lock-protected counters, and this is the test that
// catches a decrement-twice bug under contention.
func TestStatusGaugeStorm(t *testing.T) {
	_, ts := newTestServer(t, Config{JobWorkers: 4, JobQueueDepth: 4096, CacheEntries: -1})
	in := testCSV(t, 24, 3, 2, 5)
	const goroutines = 32
	const perG = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})

	// Gauge reader: poll continuously until the storm ends.
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Get(ts.URL + "/v1/status")
			if err != nil {
				continue
			}
			var h struct {
				JobsQueued   int `json:"jobs_queued"`
				JobsRunning  int `json:"jobs_running"`
				JobsFinished int `json:"jobs_finished"`
			}
			err = json.NewDecoder(resp.Body).Decode(&h)
			resp.Body.Close()
			if err != nil {
				continue
			}
			if h.JobsQueued < 0 || h.JobsRunning < 0 || h.JobsFinished < 0 {
				t.Errorf("negative gauge: queued=%d running=%d finished=%d", h.JobsQueued, h.JobsRunning, h.JobsFinished)
				return
			}
			if sum := h.JobsQueued + h.JobsRunning + h.JobsFinished; sum > goroutines*perG {
				t.Errorf("gauge sum %d exceeds %d submitted jobs", sum, goroutines*perG)
				return
			}
		}
	}()

	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < perG; k++ {
				// Unique seeds keep every submission a distinct job, so a
				// concurrent delete on one cannot resolve another.
				js := submitJob(t, ts, fmt.Sprintf("?sigma=5&seed=%d&chunk=8", g*perG+k+1), in)
				if k%2 == 0 {
					deleteJob(t, ts, js.ID) // cancel or remove, racing completion
				} else {
					waitJob(t, ts, js.ID)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	<-readerDone
}
