// Server-plane robustness tests: Retry-After on backpressure statuses,
// the degraded flag on /healthz, and the spool under storage faults.
// Contract: a client always gets either the bytes or a machine-readable
// signal of what to do next — when to retry, whether the cluster is
// degraded — never a partial 200.

package server

import (
	"encoding/json"
	"net/http"
	"strconv"
	"testing"
	"time"

	"randpriv/internal/faultfs"
)

// retryAfterSecs parses the Retry-After header, failing the test if it
// is absent or not a positive integer — the contract on every 429/503.
func retryAfterSecs(t *testing.T, hdr http.Header) int {
	t.Helper()
	raw := hdr.Get("Retry-After")
	if raw == "" {
		t.Fatal("backpressure response carries no Retry-After header")
	}
	secs, err := strconv.Atoi(raw)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After = %q, want a positive integer second count", raw)
	}
	return secs
}

func TestRetryAfterOn429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: -1})
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)
	defer release()

	status, hdr, out := post(t, ts, "/v1/assess", in)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d (body %s), want 429", status, out)
	}
	if secs := retryAfterSecs(t, hdr); secs > 120 {
		t.Errorf("Retry-After = %d, want clamped to <= 120", secs)
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
		t.Fatalf("429 body = %q (%v), want the JSON error envelope", out, err)
	}
}

func TestRetryAfterOn503(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RequestTimeout: 30 * time.Millisecond})
	in := testCSV(t, 30, 3, 1, 1)
	release := occupyWorker(t, s)

	done := make(chan struct{})
	var status int
	var hdr http.Header
	go func() {
		defer close(done)
		status, hdr, _ = post(t, ts, "/v1/assess", in)
	}()
	time.Sleep(80 * time.Millisecond)
	release()
	<-done
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", status)
	}
	retryAfterSecs(t, hdr)
}

// TestHealthzDegradedAfterBreakerTrips: three consecutive delegation
// failures open the breaker. /healthz reports the node degraded (still
// 200 — the node serves everything serially), and /v1/status carries
// the trip count in its cluster section.
func TestHealthzDegradedAfterBreakerTrips(t *testing.T) {
	s, ts := newTestServer(t, clusterConfig(t, 1))
	now := time.Now()
	for i := 0; i < 3; i++ {
		s.breaker.Failure(now)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d, want 200 (degraded is not down)", resp.StatusCode)
	}
	var h struct {
		Status   string `json:"status"`
		Degraded bool   `json:"degraded"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if !h.Degraded {
		t.Error("healthz degraded = false after the breaker opened")
	}

	resp2, err := http.Get(ts.URL + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var st struct {
		Cluster *struct {
			Degraded     bool  `json:"degraded"`
			BreakerTrips int64 `json:"breaker_trips"`
		} `json:"cluster"`
	}
	if err := json.NewDecoder(resp2.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Cluster == nil {
		t.Fatal("/v1/status has no cluster section")
	}
	if !st.Cluster.Degraded {
		t.Error("cluster.degraded = false after the breaker opened")
	}
	if st.Cluster.BreakerTrips != 1 {
		t.Errorf("cluster.breaker_trips = %d, want 1", st.Cluster.BreakerTrips)
	}
}

// TestDegradedClusterStillServes: with the breaker held open, /v1/assess
// must fall back to byte-identical serial execution — degradation is
// invisible to the client except through /healthz.
func TestDegradedClusterStillServes(t *testing.T) {
	in := testCSV(t, 120, 3, 2, 6)
	const q = "?sigma=5&seed=3&chunk=32&stream=1"

	_, plain := newTestServer(t, Config{})
	statusW, _, want := post(t, plain, "/v1/assess"+q, in)
	if statusW != http.StatusOK {
		t.Fatalf("single-process golden: status %d", statusW)
	}

	s, ts := newTestServer(t, clusterConfig(t, 1))
	now := time.Now()
	for i := 0; i < 3; i++ {
		s.breaker.Failure(now)
	}
	status, _, got := post(t, ts, "/v1/assess"+q, in)
	if status != http.StatusOK {
		t.Fatalf("degraded node: status %d (body %s), want 200 via serial fallback", status, got)
	}
	if string(got) != string(want) {
		t.Error("degraded node served different bytes than the single-process golden")
	}
}

// TestChaosSpoolWriteFaultCleanError: a failing disk under the upload
// spool must surface as a JSON error envelope, never a partial 200 and
// never a hung request.
func TestChaosSpoolWriteFaultCleanError(t *testing.T) {
	inj := faultfs.NewInjector(nil,
		faultfs.Rule{Op: faultfs.OpWrite, Path: "randprivd-", Times: 1000, Err: faultfs.ErrNoSpace},
	)
	_, ts := newTestServer(t, Config{FS: inj})
	in := testCSV(t, 60, 3, 1, 2)

	status, _, out := post(t, ts, "/v1/assess?stream=1&chunk=32&sigma=5&seed=1", in)
	if status == http.StatusOK {
		t.Fatalf("assess returned 200 while the spool disk was failing (body %d bytes)", len(out))
	}
	var env struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
		t.Fatalf("fault response body = %q (%v), want the JSON error envelope", out, err)
	}
	if inj.Faults() < 1 {
		t.Fatal("the spool schedule never fired; the test exercised nothing")
	}
}

// TestChaosDerivedSpoolWriteFault: the binary spools a request derives
// from its upload — the validated original and the disguised copy — run
// on the same faultfs seam as the upload spool. ENOSPC on either one,
// after the upload itself spooled cleanly, must surface as a JSON error
// envelope with nothing left in the spool directory.
func TestChaosDerivedSpoolWriteFault(t *testing.T) {
	for _, c := range []struct{ spool, path string }{
		{"orig", "/v1/assess?stream=1&chunk=32&sigma=5&seed=1"},
		{"disg", "/v1/assess?stream=1&chunk=32&sigma=5&seed=1"},
		{"disg", "/v1/assess?chunk=32&sigma=5&seed=1"},
		{"orig", "/v1/perturb?chunk=32&sigma=5&seed=1"},
		{"orig", "/v1/attack?chunk=32&sigma=5"},
	} {
		inj := faultfs.NewInjector(nil,
			faultfs.Rule{Op: faultfs.OpWrite, Path: "randprivd-" + c.spool + "-", Times: 1000, Err: faultfs.ErrNoSpace},
		)
		s, ts := newTestServer(t, Config{FS: inj})
		in := testCSV(t, 60, 3, 1, 2)

		status, _, out := post(t, ts, c.path, in)
		if status == http.StatusOK {
			t.Fatalf("%s spool, %s: 200 while the spool disk was failing (body %d bytes)", c.spool, c.path, len(out))
		}
		var env struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(out, &env); err != nil || env.Error == "" {
			t.Fatalf("%s spool, %s: fault response body = %q (%v), want the JSON error envelope", c.spool, c.path, out, err)
		}
		if inj.Faults() < 1 {
			t.Fatalf("%s spool, %s: the schedule never fired; the test exercised nothing", c.spool, c.path)
		}
		assertSpoolEmpty(t, s.cfg.SpoolDir, c.spool+" spool fault on "+c.path)
	}
}
