package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"randpriv/internal/dataset"
	"randpriv/internal/faultfs"
	"randpriv/internal/mat"
)

// csvPathBody computes a /v1/perturb or /v1/attack response body the
// way the endpoints did before the binary spool: every pass decodes
// the CSV upload itself.
func csvPathBody(t *testing.T, s *Server, path, query string, in []byte) []byte {
	t.Helper()
	var keys []string
	switch path {
	case "/v1/perturb":
		keys = []string{"sigma", "seed", "scheme", "chunk", "epsilon", "delta", "sensitivity"}
	case "/v1/attack":
		keys = []string{"sigma", "attack", "correlated", "chunk"}
	}
	p, err := s.decodeParams(httptest.NewRequest(http.MethodPost, path+"?"+query, nil), keys...)
	if err != nil {
		t.Fatal(err)
	}
	src, err := dataset.ReadCSVChunks(func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(in)), nil }, p.Chunk)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var out bytes.Buffer
	cw, err := dataset.NewChunkWriter(&out, src.Names())
	if err != nil {
		t.Fatal(err)
	}
	if path == "/v1/perturb" {
		bd, err := buildDefense(p, src)
		if err != nil {
			t.Fatal(err)
		}
		err = bd.Scheme.PerturbStream(src, cw, requestRNG(p.Seed))
	} else {
		attack, aerr := buildAttack(p, src, mat.NewWorkspace())
		if aerr != nil {
			t.Fatal(aerr)
		}
		err = attack.ReconstructStream(src, cw)
	}
	if err != nil {
		t.Fatal(err)
	}
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestPerturbAttackBodiesMatchCSVPath: /v1/perturb and /v1/attack read
// every pass after validation from the binary spool, and their CSV
// bodies are byte-identical to the all-CSV computation — including the
// covariance-hungry correlated scheme and the correlated BE-DR, which
// make an extra pass.
func TestPerturbAttackBodiesMatchCSVPath(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	in := testCSV(t, 200, 5, 2, 13)
	_, _, disguised := post(t, ts, "/v1/perturb?sigma=4&seed=2&scheme=correlated", in)
	for _, c := range []struct{ path, query string }{
		{"/v1/perturb", "sigma=4&seed=11&chunk=32"},
		{"/v1/perturb", "sigma=3&seed=5&scheme=correlated&chunk=7"},
		{"/v1/perturb", "scheme=dp-laplace&epsilon=2&seed=3&chunk=64"},
		{"/v1/attack", "sigma=4&attack=pcadr&chunk=64"},
		{"/v1/attack", "sigma=4&attack=bedr&chunk=1"},
		{"/v1/attack", "sigma=4&attack=bedr&correlated=true&chunk=32"},
		{"/v1/attack", "sigma=4&attack=sf&chunk=50"},
		{"/v1/attack", "attack=ndr"},
	} {
		body := in
		if c.path == "/v1/attack" {
			body = disguised
		}
		status, _, got := post(t, ts, c.path+"?"+c.query, body)
		if status != http.StatusOK {
			t.Fatalf("%s?%s: status %d, body %s", c.path, c.query, status, got)
		}
		if want := csvPathBody(t, s, c.path, c.query, body); !bytes.Equal(got, want) {
			t.Errorf("%s?%s: body differs from the CSV-path computation (%d vs %d bytes)", c.path, c.query, len(got), len(want))
		}
	}
}

// assertSpoolEmpty fails unless dir holds no files.
func assertSpoolEmpty(t *testing.T, dir, after string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("after %s: %s left behind in the spool directory", after, e.Name())
	}
}

// writeCounter is a faultfs.FS that counts the bytes written to files
// whose name contains match.
type writeCounter struct {
	faultfs.OS
	match string
	mu    sync.Mutex
	n     int64
}

type countedFile struct {
	faultfs.File
	c *writeCounter
}

func (f countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.mu.Lock()
	f.c.n += int64(n)
	f.c.mu.Unlock()
	return n, err
}

func (c *writeCounter) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := c.OS.CreateTemp(dir, pattern)
	if err != nil || !strings.Contains(f.Name(), c.match) {
		return f, err
	}
	return countedFile{File: f, c: c}, nil
}

func (c *writeCounter) written() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestNoSpoolFilesLeftBehind: every way out of a request — success in
// either mode, a 400 found after part of the original spool is on disk,
// a cancellation mid-battery — leaves the spool directory empty.
func TestNoSpoolFilesLeftBehind(t *testing.T) {
	in := testCSV(t, 300, 4, 2, 8)
	for _, q := range []string{
		"/v1/assess?sigma=5&seed=3&stream=1&chunk=64",
		"/v1/assess?sigma=5&seed=3&stream=0&chunk=64",
		"/v1/perturb?sigma=5&seed=3&chunk=64",
		"/v1/attack?sigma=5&attack=bedr&correlated=true&chunk=64",
	} {
		s, ts := newTestServer(t, Config{})
		if status, _, out := post(t, ts, q, in); status != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", q, status, out)
		}
		assertSpoolEmpty(t, s.cfg.SpoolDir, q)
	}

	t.Run("late malformed row", func(t *testing.T) {
		// 4000 valid 4-column rows are 128 KB of spool — past the spool
		// writer's buffer, so part of the original spool is on disk
		// when the bad row turns the request into a 400.
		var b strings.Builder
		b.WriteString("a,b,c,d\n")
		for i := 0; i < 4000; i++ {
			fmt.Fprintf(&b, "%d,%d.5,-%d,%de-3\n", i, i, i, i)
		}
		b.WriteString("1,2,oops,4\n")
		counter := &writeCounter{match: "randprivd-orig-"}
		s, ts := newTestServer(t, Config{FS: counter})
		status, _, out := post(t, ts, "/v1/assess?stream=1&chunk=64", []byte(b.String()))
		if status != http.StatusBadRequest {
			t.Fatalf("status %d, body %s; want 400", status, out)
		}
		if counter.written() == 0 {
			t.Fatal("no byte of the original spool reached the disk before the 400; the test exercised nothing")
		}
		assertSpoolEmpty(t, s.cfg.SpoolDir, "a late 400")
	})

	t.Run("canceled mid-battery", func(t *testing.T) {
		const n, m = 20000, 6
		big := testCSV(t, n, m, 2, 9)
		s, _ := newTestServer(t, Config{RequestTimeout: time.Minute})
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/v1/assess?sigma=5&seed=3&stream=1&chunk=8", bytes.NewReader(big)).WithContext(ctx)
		rec := httptest.NewRecorder()
		done := make(chan struct{})
		go func() {
			defer close(done)
			s.ServeHTTP(rec, req)
		}()
		// The battery starts once the disguised spool is complete.
		complete := int64(32 + n*m*8)
		for started := false; !started; {
			select {
			case <-done:
				t.Fatalf("assessment finished (status %d) before it could be canceled; enlarge the input", rec.Code)
			case <-time.After(100 * time.Microsecond):
			}
			disg, _ := filepath.Glob(filepath.Join(s.cfg.SpoolDir, "randprivd-disg-*"))
			for _, f := range disg {
				if fi, err := os.Stat(f); err == nil && fi.Size() == complete {
					started = true
				}
			}
		}
		cancel()
		<-done
		if rec.Code == http.StatusOK {
			t.Fatal("a canceled assessment answered 200")
		}
		assertSpoolEmpty(t, s.cfg.SpoolDir, "a cancellation mid-battery")
	})
}
