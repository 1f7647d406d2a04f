package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"testing"
	"time"

	"randpriv/internal/core"
	"randpriv/internal/dataset"
	"randpriv/internal/mat"
	"randpriv/internal/synth"
)

// testCSV builds a deterministic correlated data set as CSV bytes — the
// same generator the CLI's gen subcommand uses.
func testCSV(t testing.TB, n, m, p int, seed int64) []byte {
	t.Helper()
	spec := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}
	vals, err := spec.Values()
	if err != nil {
		t.Fatalf("spectrum: %v", err)
	}
	ds, err := synth.Generate(n, vals, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	tbl, err := dataset.New(nil, ds.X)
	if err != nil {
		t.Fatalf("table: %v", err)
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		t.Fatalf("write csv: %v", err)
	}
	return buf.Bytes()
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.SpoolDir == "" {
		cfg.SpoolDir = t.TempDir()
	}
	if cfg.JobsDir == "" {
		cfg.JobsDir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends body to the server and returns status + response body.
func post(t testing.TB, ts *httptest.Server, path string, body []byte) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "text/csv", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	return resp.StatusCode, resp.Header, out
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Status != "ok" || h.Degraded {
		t.Errorf("healthz = %+v, want ok and not degraded", h)
	}
}

func TestStatusGauges(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})
	resp, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatalf("GET /v1/status: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200", resp.StatusCode)
	}
	var h struct {
		Workers    int `json:"workers"`
		QueueDepth int `json:"queue_depth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if h.Workers != 2 || h.QueueDepth != 4 {
		t.Errorf("/v1/status = %+v, want workers 2, queue depth 4", h)
	}
}

func TestSchemes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/schemes")
	if err != nil {
		t.Fatalf("GET /v1/schemes: %v", err)
	}
	defer resp.Body.Close()
	var body struct {
		Schemes   []struct{ Name string }
		Attacks   []struct{ Name string }
		Utilities []struct{ Name string }
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("decode: %v", err)
	}
	// The catalogue is enumerated from the registry: its sizes move in
	// lock-step with core.Builtins().
	reg := core.Builtins()
	if len(body.Schemes) != len(reg.DefenseModes()) ||
		len(body.Attacks) != len(reg.AttackModes()) ||
		len(body.Utilities) != len(reg.UtilityModes()) {
		t.Errorf("schemes=%d attacks=%d utilities=%d, want %d/%d/%d",
			len(body.Schemes), len(body.Attacks), len(body.Utilities),
			len(reg.DefenseModes()), len(reg.AttackModes()), len(reg.UtilityModes()))
	}
}

func TestPerturbRoundTripAndDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 120, 5, 2, 7)

	status, hdr, out1 := post(t, ts, "/v1/perturb?sigma=4&seed=11&chunk=32", in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out1)
	}
	if ct := hdr.Get("Content-Type"); ct != "text/csv" {
		t.Errorf("Content-Type = %q, want text/csv", ct)
	}
	tbl, err := dataset.ReadCSV(bytes.NewReader(out1))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if n, m := tbl.Dims(); n != 120 || m != 5 {
		t.Fatalf("dims %dx%d, want 120x5", n, m)
	}
	if bytes.Equal(out1, in) {
		t.Fatal("perturbed output identical to input")
	}

	// Identical seeded request -> byte-identical response.
	if _, _, out2 := post(t, ts, "/v1/perturb?sigma=4&seed=11&chunk=32", in); !bytes.Equal(out1, out2) {
		t.Fatal("same seed produced different perturbations")
	}
	// Different seed -> different noise.
	if _, _, out3 := post(t, ts, "/v1/perturb?sigma=4&seed=12&chunk=32", in); bytes.Equal(out1, out3) {
		t.Fatal("different seed produced identical perturbations")
	}
}

func TestPerturbCorrelatedScheme(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 150, 4, 2, 3)
	status, _, out := post(t, ts, "/v1/perturb?sigma=3&seed=5&scheme=correlated", in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out)
	}
	tbl, err := dataset.ReadCSV(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("parse response: %v", err)
	}
	if n, m := tbl.Dims(); n != 150 || m != 4 {
		t.Fatalf("dims %dx%d, want 150x4", n, m)
	}
}

func TestAttackEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 200, 6, 2, 9)
	_, _, disguised := post(t, ts, "/v1/perturb?sigma=5&seed=2", in)

	// NDR is the identity attack: the response must echo the upload.
	status, _, echoed := post(t, ts, "/v1/attack?attack=ndr", disguised)
	if status != http.StatusOK {
		t.Fatalf("ndr status = %d, body %s", status, echoed)
	}
	if !bytes.Equal(echoed, disguised) {
		t.Fatal("NDR attack response differs from its input")
	}

	for _, attack := range []string{"pcadr", "bedr"} {
		status, hdr, out := post(t, ts, "/v1/attack?sigma=5&attack="+attack+"&chunk=64", disguised)
		if status != http.StatusOK {
			t.Fatalf("%s status = %d, body %s", attack, status, out)
		}
		if ct := hdr.Get("Content-Type"); ct != "text/csv" {
			t.Errorf("%s Content-Type = %q, want text/csv", attack, ct)
		}
		tbl, err := dataset.ReadCSV(bytes.NewReader(out))
		if err != nil {
			t.Fatalf("%s: parse response: %v", attack, err)
		}
		if n, m := tbl.Dims(); n != 200 || m != 6 {
			t.Fatalf("%s dims %dx%d, want 200x6", attack, n, m)
		}
	}
}

func TestAttackCorrelatedBEDR(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 150, 4, 2, 21)
	_, _, disguised := post(t, ts, "/v1/perturb?sigma=4&seed=2&scheme=correlated", in)
	status, _, out := post(t, ts, "/v1/attack?sigma=4&attack=bedr&correlated=1", disguised)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out)
	}
}

func TestAssessMemoryMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 150, 4, 2, 5)
	status, hdr, out := post(t, ts, "/v1/assess?sigma=5&seed=3", in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var rep struct {
		Scheme        string  `json:"scheme"`
		Mode          string  `json:"mode"`
		Rows          int64   `json:"rows"`
		Cols          int     `json:"cols"`
		MostDangerous string  `json:"most_dangerous"`
		NDRBaseline   float64 `json:"ndr_baseline_rmse"`
		Results       []struct {
			Attack string  `json:"attack"`
			RMSE   float64 `json:"rmse"`
		} `json:"results"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Mode != "memory" || rep.Rows != 150 || rep.Cols != 4 {
		t.Errorf("mode/rows/cols = %s/%d/%d, want memory/150/4", rep.Mode, rep.Rows, rep.Cols)
	}
	if len(rep.Results) != 4 { // UDR, SF, PCA-DR, BE-DR
		t.Errorf("results = %d, want 4 (full battery)", len(rep.Results))
	}
	if rep.MostDangerous == "" || rep.NDRBaseline <= 0 {
		t.Errorf("most_dangerous=%q baseline=%g, want non-empty/positive", rep.MostDangerous, rep.NDRBaseline)
	}
}

func TestAssessStreamMode(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 300, 5, 2, 6)
	for _, scheme := range []string{"additive", "correlated"} {
		status, _, out := post(t, ts, "/v1/assess?sigma=5&seed=3&stream=1&chunk=64&scheme="+scheme, in)
		if status != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", scheme, status, out)
		}
		var rep struct {
			Mode    string `json:"mode"`
			Results []struct {
				Attack string `json:"attack"`
				Error  string `json:"error"`
			} `json:"results"`
		}
		if err := json.Unmarshal(out, &rep); err != nil {
			t.Fatalf("%s: decode: %v", scheme, err)
		}
		if rep.Mode != "stream" {
			t.Errorf("%s: mode = %q, want stream", scheme, rep.Mode)
		}
		if len(rep.Results) != 2 { // PCA-DR, BE-DR (NDR is the baseline)
			t.Fatalf("%s: results = %d, want 2", scheme, len(rep.Results))
		}
		for _, res := range rep.Results {
			if res.Error != "" {
				t.Errorf("%s: attack %s failed: %s", scheme, res.Attack, res.Error)
			}
		}
	}
}

func TestMalformedCSVReturns400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := map[string][]byte{
		"ragged row":    []byte("a,b\n1,2\n3\n"),
		"non-numeric":   []byte("a,b\n1,x\n"),
		"NaN value":     []byte("a,b\nNaN,2\n"),
		"empty field":   []byte("a,b\n1,\n"),
		"empty body":    nil,
		"header only":   []byte("a,b\n"),
		"dup names":     []byte("a,a\n1,2\n"),
		"huge exponent": []byte("a,b\n1e999,2\n"),
	}
	for name, body := range cases {
		for _, path := range []string{"/v1/perturb", "/v1/attack", "/v1/assess"} {
			status, _, out := post(t, ts, path, body)
			if status != http.StatusBadRequest {
				t.Errorf("%s %s: status = %d (body %s), want 400", path, name, status, out)
			}
			if !bytes.Contains(out, []byte(`"error"`)) {
				t.Errorf("%s %s: error envelope missing: %s", path, name, out)
			}
		}
	}
}

func TestBadParamsReturn400(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := testCSV(t, 20, 3, 1, 1)
	for _, q := range []string{
		"?sigma=0", "?sigma=-2", "?sigma=NaN", "?sigma=+Inf",
		"?scheme=banana", "?chunk=0", "?chunk=-1", "?seed=abc",
		"?definitely-not-a-param=1", "?stream=maybe",
	} {
		status, _, out := post(t, ts, "/v1/assess"+q, in)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d (body %s), want 400", q, status, out)
		}
		// Every 400 carries the stable machine-readable code alongside
		// the human-readable message.
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal(out, &env); err != nil {
			t.Errorf("%s: body %q is not the JSON error envelope: %v", q, out, err)
		} else if env.Code != "param_invalid" || env.Error == "" {
			t.Errorf("%s: envelope = %+v, want code param_invalid with a message", q, env)
		}
	}
	if status, _, _ := post(t, ts, "/v1/attack?attack=udr", in); status != http.StatusBadRequest {
		t.Errorf("attack=udr: status = %d, want 400 (not streamable)", status)
	}
	// correlated=true only pairs with bedr; the other attacks would
	// otherwise silently run their i.i.d. variant.
	for _, attack := range []string{"ndr", "pcadr"} {
		if status, _, _ := post(t, ts, "/v1/attack?attack="+attack+"&correlated=1", in); status != http.StatusBadRequest {
			t.Errorf("attack=%s&correlated=1: status = %d, want 400", attack, status)
		}
	}

	// Parameters from the wrong endpoint must fail loudly, not silently
	// fall back to defaults (perturb?correlated=1 would otherwise apply
	// the additive scheme while the caller believes otherwise).
	for path, q := range map[string]string{
		"/v1/perturb": "?correlated=1",
		"/v1/attack":  "?seed=3",
		"/v1/assess":  "?attack=pcadr",
	} {
		status, _, out := post(t, ts, path+q, in)
		if status != http.StatusBadRequest {
			t.Errorf("%s%s: status = %d (body %s), want 400", path, q, status, out)
		}
	}
}

func TestOversizedBodyReturns413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 1024})
	big := testCSV(t, 500, 8, 2, 1) // well over 1 KiB
	status, _, out := post(t, ts, "/v1/assess", big)
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d (body %s), want 413", status, out)
	}
}

// TestMethodNotAllowed walks the whole route table: every registered
// pattern must answer an unsupported method with 405, the correct Allow
// header, and the JSON error envelope (code method_not_allowed).
func TestMethodNotAllowed(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, rt := range s.routes() {
		allowed := make(map[string]bool, len(rt.methods))
		for _, m := range rt.methods {
			allowed[m] = true
		}
		wantAllow := strings.Join(rt.methods, ", ")
		path := strings.ReplaceAll(rt.pattern, "{id}", "someid")
		for _, method := range []string{http.MethodGet, http.MethodPost, http.MethodPut, http.MethodDelete, http.MethodPatch} {
			if allowed[method] {
				continue
			}
			req, err := http.NewRequest(method, ts.URL+path, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			out, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("%s %s: status = %d (body %s), want 405", method, rt.pattern, resp.StatusCode, out)
				continue
			}
			if got := resp.Header.Get("Allow"); got != wantAllow {
				t.Errorf("%s %s: Allow = %q, want %q", method, rt.pattern, got, wantAllow)
			}
			var env struct {
				Error string `json:"error"`
				Code  string `json:"code"`
			}
			if err := json.Unmarshal(out, &env); err != nil {
				t.Errorf("%s %s: body %q is not the JSON error envelope: %v", method, rt.pattern, out, err)
			} else if env.Code != "method_not_allowed" || env.Error == "" {
				t.Errorf("%s %s: envelope = %+v, want code method_not_allowed with a message", method, rt.pattern, env)
			}
		}
	}
}

// occupyWorker blocks one pool worker until the returned release func is
// called. It retries ErrQueueFull: with an unbuffered queue, Do can only
// hand a job over once the worker goroutine has parked on its receive.
func occupyWorker(t *testing.T, s *Server) (release func()) {
	t.Helper()
	releaseCh := make(chan struct{})
	started := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			err := s.pool.Do(context.Background(), func(_ *mat.Workspace) error {
				close(started)
				<-releaseCh
				return nil
			})
			if err != ErrQueueFull {
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	<-started
	return func() {
		close(releaseCh)
		wg.Wait()
	}
}

// TestWorkerPanicBecomes500 pins the pool's panic containment: a panic
// in request compute must fail that request with 500 and leave the
// worker alive for the next one, never crash the process.
func TestWorkerPanicBecomes500(t *testing.T) {
	err := runJob(func(_ *mat.Workspace) error { panic("boom") }, mat.NewWorkspace())
	var pe *panicError
	if !errors.As(err, &pe) {
		t.Fatalf("runJob returned %v, want *panicError", err)
	}
	if !strings.Contains(err.Error(), "boom") || len(pe.Stack) == 0 {
		t.Errorf("panicError = %q (stack %d bytes)", err.Error(), len(pe.Stack))
	}

	pool := newWorkerPool(1, 1)
	defer pool.Close()
	if err := pool.Do(context.Background(), func(_ *mat.Workspace) error { panic("kaboom") }); err == nil {
		t.Fatal("panicking job returned nil error")
	} else if statusOf(err) != http.StatusInternalServerError {
		t.Errorf("statusOf(panic) = %d, want 500", statusOf(err))
	}
	// The worker survived and serves the next job.
	if err := pool.Do(context.Background(), func(_ *mat.Workspace) error { return nil }); err != nil {
		t.Errorf("job after panic: %v", err)
	}
}

func TestQueueFullReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1}) // no queue slots
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)

	status, _, out := post(t, ts, "/v1/assess", in)
	if status != http.StatusTooManyRequests {
		t.Errorf("status = %d (body %s), want 429", status, out)
	}
	release()

	// With the worker free again the same request succeeds.
	if status, _, body := post(t, ts, "/v1/assess", in); status != http.StatusOK {
		t.Errorf("after release: status = %d (body %s), want 200", status, body)
	}
}

func TestDeadlineExpiredInQueueReturns503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Millisecond})
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)

	// This request lands in the queue; its 30ms deadline expires while
	// the worker is still blocked, so the worker must skip it.
	done := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(done)
		status, _, body = post(t, ts, "/v1/assess", in)
	}()
	time.Sleep(80 * time.Millisecond)
	release()
	<-done
	if status != http.StatusServiceUnavailable {
		t.Errorf("status = %d (body %s), want 503", status, body)
	}
}

func TestAssessCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 16})
	in := testCSV(t, 100, 4, 2, 8)
	const q = "/v1/assess?sigma=5&seed=3&stream=1&chunk=32"

	status, hdr, out1 := post(t, ts, q, in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out1)
	}
	if got := hdr.Get("X-Cache"); got != "miss" {
		t.Errorf("first X-Cache = %q, want miss", got)
	}
	status, hdr, out2 := post(t, ts, q, in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out2)
	}
	if got := hdr.Get("X-Cache"); got != "hit" {
		t.Errorf("second X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(out1, out2) {
		t.Error("cached response differs from computed response")
	}
	if hits, _, _ := s.cache.Stats(); hits != 1 {
		t.Errorf("cache hits = %d, want 1", hits)
	}

	// A different σ must miss: the key covers every result-bearing param.
	if _, hdr, _ := post(t, ts, "/v1/assess?sigma=6&seed=3&stream=1&chunk=32", in); hdr.Get("X-Cache") != "miss" {
		t.Error("different sigma was served from cache")
	}
}

// TestAssessConcurrentDeterministic is the -race load test: ≥64
// concurrent /v1/assess requests in two seed groups, with caching
// disabled so every request computes from scratch. Every response in a
// group must be byte-identical — the determinism the per-request
// TrialSeed RNG discipline guarantees at any concurrency.
func TestAssessConcurrentDeterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 128, CacheEntries: -1, RequestTimeout: 2 * time.Minute})
	in := testCSV(t, 200, 4, 2, 13)

	const perGroup = 32 // 2 groups × 32 = 64 concurrent requests
	queries := [2]string{
		"/v1/assess?sigma=5&seed=41&stream=1&chunk=64",
		"/v1/assess?sigma=5&seed=42&stream=1&chunk=64",
	}

	type result struct {
		group  int
		status int
		body   []byte
	}
	results := make(chan result, 2*perGroup)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		for i := 0; i < perGroup; i++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				resp, err := http.Post(ts.URL+queries[g], "text/csv", bytes.NewReader(in))
				if err != nil {
					results <- result{group: g, status: -1, body: []byte(err.Error())}
					return
				}
				defer resp.Body.Close()
				body, _ := io.ReadAll(resp.Body)
				results <- result{group: g, status: resp.StatusCode, body: body}
			}(g)
		}
	}
	wg.Wait()
	close(results)

	var ref [2][]byte
	for res := range results {
		if res.status != http.StatusOK {
			t.Fatalf("group %d: status = %d, body %s", res.group, res.status, res.body)
		}
		if ref[res.group] == nil {
			ref[res.group] = res.body
			continue
		}
		if !bytes.Equal(ref[res.group], res.body) {
			t.Fatalf("group %d: responses differ under concurrent load:\n%s\nvs\n%s",
				res.group, ref[res.group], res.body)
		}
	}
	if ref[0] == nil || ref[1] == nil {
		t.Fatal("missing results")
	}
	if bytes.Equal(ref[0], ref[1]) {
		t.Fatal("different seeds produced identical reports")
	}
}

// TestAssessStreamLargeUpload streams a larger upload through assess to
// exercise the spool + chunked two-pass path end to end (the memory
// bound itself is pinned by BenchmarkServerAssessStream, whose B/op must
// not scale with n).
func TestAssessStreamLargeUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("large upload in -short mode")
	}
	_, ts := newTestServer(t, Config{RequestTimeout: 5 * time.Minute})
	in := testCSV(t, 20000, 8, 3, 17)
	status, _, out := post(t, ts, "/v1/assess?sigma=5&seed=3&stream=1&chunk=512", in)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, out)
	}
	var rep struct {
		Rows int64 `json:"rows"`
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rep.Rows != 20000 {
		t.Fatalf("rows = %d, want 20000", rep.Rows)
	}
}

// BenchmarkServerAssessStream tracks per-request cost at the service
// boundary across upload sizes. Note B/op grows linearly with n — that
// is the one CSV decode of the validating pass (strconv parsing
// allocates per value; every later pass reads the binary spool), not
// resident memory: every row buffer in the pipeline is reused, so the
// peak footprint stays O(chunk + m²) — the property
// BenchmarkStreamingAttack pins with flat B/op at the attack layer,
// below the CSV codec. scripts/bench.sh records it in every snapshot;
// run with -benchtime 1x in CI as a smoke test.
func BenchmarkServerAssessStream(b *testing.B) {
	for _, n := range []int{2048, 8192} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s, _ := newTestServer(b, Config{CacheEntries: -1, RequestTimeout: 5 * time.Minute})
			in := testCSV(b, n, 6, 2, 3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest(http.MethodPost, "/v1/assess?sigma=5&seed=3&stream=1&chunk=256", bytes.NewReader(in))
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, req)
				if rec.Code != http.StatusOK {
					b.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
				}
			}
		})
	}
}

// FuzzRequestParams is the server-side request-parsing fuzz target: no
// query string may panic the parser, and accepted parameter sets must be
// internally valid.
func FuzzRequestParams(f *testing.F) {
	for _, seed := range []string{
		"", "sigma=5&seed=1", "sigma=0", "sigma=-1", "sigma=NaN", "sigma=+Inf",
		"sigma=1e999", "scheme=correlated&stream=1", "attack=bedr&correlated=true",
		"chunk=0", "chunk=99999999999999999999", "seed=-9223372036854775808",
		"stream=TRUE&stream=1", "a=b", "sigma=5&sigma=6", "%zz", "chunk=1&chunk=2",
		// Registry-era surface: operator lists, DP calibration, probes.
		"attacks=asr,tseries", "attacks=pcadr,pcadr", "attacks=,", "attacks=sf&stream=1",
		"utility=kmeans,nbayes,dtree&k=3", "utility=kmeans&stream=1", "scheme=none&utility=dtree",
		"scheme=dp-laplace&epsilon=0.5&sensitivity=2", "scheme=dp-gaussian&epsilon=2&delta=0.5",
		"scheme=dp-laplace&sigma=5", "epsilon=0", "delta=1", "sensitivity=-1", "k=0",
		"k=9999999999999999999", "scheme=none", "attack=tseries&correlated=1",
	} {
		f.Add(seed)
	}
	reg := core.Builtins()
	f.Fuzz(func(t *testing.T, query string) {
		q, err := url.ParseQuery(query)
		if err != nil {
			return
		}
		defaults := requestParams{Sigma: 5, Seed: 1, Scheme: schemeAdditive, Attack: "pcadr", Chunk: 4096, Epsilon: 1, Delta: 1e-5, Sensitivity: 1}
		p, err := parseRequestParams(q, defaults, append(assessParamKeys, "attack", "correlated")...)
		if err != nil {
			return
		}
		if !(p.Sigma > 0) {
			t.Fatalf("accepted non-positive sigma %v from %q", p.Sigma, query)
		}
		if p.Chunk < 1 || p.Chunk > maxChunkRows {
			t.Fatalf("accepted chunk %d from %q", p.Chunk, query)
		}
		if _, err := reg.LookupDefense(p.Scheme); err != nil {
			t.Fatalf("accepted scheme %q from %q", p.Scheme, query)
		}
		if _, err := reg.LookupAttack(p.Attack); err != nil {
			t.Fatalf("accepted attack %q from %q", p.Attack, query)
		}
		if !(p.Epsilon > 0) || !(p.Delta > 0) || p.Delta >= 1 || !(p.Sensitivity > 0) {
			t.Fatalf("accepted dp calibration ε=%v δ=%v sens=%v from %q", p.Epsilon, p.Delta, p.Sensitivity, query)
		}
		if p.K != 0 && (p.K < 1 || p.K > maxClusterK) {
			t.Fatalf("accepted k=%d from %q", p.K, query)
		}
		seenAttack := map[string]bool{}
		for _, mode := range p.Attacks {
			spec, err := reg.LookupAttack(mode)
			if err != nil {
				t.Fatalf("accepted battery mode %q from %q", mode, query)
			}
			if seenAttack[mode] {
				t.Fatalf("accepted duplicate battery mode %q from %q", mode, query)
			}
			seenAttack[mode] = true
			if p.Stream && !spec.Caps.Streaming {
				t.Fatalf("accepted resident-only mode %q in a streamed battery from %q", mode, query)
			}
		}
		seenUtility := map[string]bool{}
		for _, mode := range p.Utility {
			if _, err := reg.LookupUtility(mode); err != nil {
				t.Fatalf("accepted utility mode %q from %q", mode, query)
			}
			if seenUtility[mode] {
				t.Fatalf("accepted duplicate utility mode %q from %q", mode, query)
			}
			seenUtility[mode] = true
		}
		if len(p.Utility) > 0 && (p.Stream || p.Scheme == schemeNone) {
			t.Fatalf("accepted utility probes with stream=%v scheme=%q from %q", p.Stream, p.Scheme, query)
		}
	})
}
