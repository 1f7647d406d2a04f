package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"mime/multipart"
	"net/textproto"
	"net/url"
	"os"
	"path/filepath"
	"strconv"

	"randpriv/internal/dataset"
	"randpriv/internal/sweep"
	"randpriv/internal/synth"
)

// Workload shapes. Each constant is part of the workload's definition;
// changing one changes what the benchmark measures.
const (
	// assess_stream: a 2048×6 streamed assessment per op. The ops cycle
	// through more distinct seeds than the server's 128-entry LRU holds,
	// visiting them in order, so every op misses the cache.
	assessRows, assessCols, assessChunk = 2048, 6, 256
	assessCycle                         = 136

	// sweep_grid: a 4σ × 4 seed streamed grid over a 1024×24 upload per
	// op. 10 specs × 16 points = 160 cache entries, again more than the
	// LRU holds, so no point is ever served from cache.
	sweepRows, sweepCols, sweepChunk = 1024, 24, 256
	sweepCycle                       = 10
)

// csvBytes generates a seeded correlated data set (the spectrum the
// server tests use) and renders it as CSV.
func csvBytes(n, m int, seed int64) ([]byte, error) {
	p := m / 3
	if p < 1 {
		p = 1
	}
	vals, err := synth.Spectrum{M: m, P: p, Principal: 400, Tail: 4}.Values()
	if err != nil {
		return nil, err
	}
	ds, err := synth.Generate(n, vals, nil, rand.New(rand.NewSource(seed)))
	if err != nil {
		return nil, err
	}
	tbl, err := dataset.New(nil, ds.X)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := tbl.WriteCSV(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// upload is one generated data set, kept both in memory (the HTTP body)
// and on disk (the replay reads it through dataset.ChunkSource, as the
// server reads its spool file).
type upload struct {
	body   []byte
	path   string
	digest string
}

func newUpload(dir, name string, body []byte) (upload, error) {
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		return upload{}, err
	}
	sum := sha256.Sum256(body)
	return upload{body: body, path: path, digest: hex.EncodeToString(sum[:])}, nil
}

// assessParams is a standalone assessment as the server decodes it from
// a query string with the given seed (every other knob at its default).
func assessParams(seed int64) sweep.Params {
	return sweep.Params{
		Sigma: sweep.DefaultSigma, Seed: seed, Scheme: "additive", Chunk: assessChunk, Stream: true,
		Epsilon: sweep.DefaultEpsilon, Delta: sweep.DefaultDelta, Sensitivity: sweep.DefaultSensitivity,
	}
}

// query renders a streamed assessment as its /v1/assess query string.
func query(p sweep.Params) string {
	q := url.Values{}
	q.Set("sigma", strconv.FormatFloat(p.Sigma, 'g', -1, 64))
	q.Set("seed", strconv.FormatInt(p.Seed, 10))
	q.Set("chunk", strconv.Itoa(p.Chunk))
	q.Set("stream", "1")
	return q.Encode()
}

// opInput is one distinct operation of a workload: what the client
// sends, and the key the replay needs to recompute it.
type opInput struct {
	up     upload
	params sweep.Params // assess_stream
	query  string       // assess_stream: the /v1/assess query
	// sweep_grid: the JSON sweep spec, and the multipart submission that
	// carries it with the upload.
	spec      []byte
	ctype     string
	multipart []byte
}

// inputs is everything a run sends, generated from the seed alone. The
// closed loops send ops[k % len(ops)] as their k-th op.
type inputs struct {
	ops []opInput
}

// genInputs builds a workload's inputs from the seed. dir receives the
// upload files.
func genInputs(workload string, seed int64, dir string) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	switch workload {
	case "assess_stream":
		body, err := csvBytes(assessRows, assessCols, rng.Int63())
		if err != nil {
			return nil, err
		}
		up, err := newUpload(dir, "assess.csv", body)
		if err != nil {
			return nil, err
		}
		for _, s := range distinctSeeds(rng, assessCycle) {
			p := assessParams(s)
			in.ops = append(in.ops, opInput{up: up, params: p, query: query(p)})
		}
	case "sweep_grid":
		body, err := csvBytes(sweepRows, sweepCols, rng.Int63())
		if err != nil {
			return nil, err
		}
		up, err := newUpload(dir, "sweep.csv", body)
		if err != nil {
			return nil, err
		}
		seeds := distinctSeeds(rng, 4*sweepCycle)
		for i := 0; i < sweepCycle; i++ {
			sigmas := make([]float64, 4)
			for j := range sigmas {
				sigmas[j] = float64(2 + rng.Intn(14)) // 2..15, the paper's σ range
			}
			spec, err := json.Marshal(sweep.Spec{
				Defenses: []sweep.DefenseAxis{{Scheme: "additive", Sigmas: distinctFloats(sigmas)}},
				Seeds:    seeds[4*i : 4*i+4],
				Stream:   true,
				Chunk:    sweepChunk,
			})
			if err != nil {
				return nil, err
			}
			ctype, body, err := multipartSweep(spec, up.body)
			if err != nil {
				return nil, err
			}
			in.ops = append(in.ops, opInput{up: up, spec: spec, ctype: ctype, multipart: body})
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	return in, nil
}

// distinctSeeds draws n distinct positive seeds.
func distinctSeeds(rng *rand.Rand, n int) []int64 {
	seen := make(map[int64]bool, n)
	out := make([]int64, 0, n)
	for len(out) < n {
		s := rng.Int63n(1<<31) + 1
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// distinctFloats replaces repeated values so a grid axis never collapses
// duplicate points (the plan would then hold fewer than 16 points).
func distinctFloats(v []float64) []float64 {
	seen := make(map[float64]bool)
	for i := range v {
		for seen[v[i]] {
			v[i] += 0.5
		}
		seen[v[i]] = true
	}
	return v
}

// multipartSweep builds the multipart body of a sweep submission.
func multipartSweep(spec, data []byte) (string, []byte, error) {
	var buf bytes.Buffer
	mw := multipart.NewWriter(&buf)
	for _, part := range []struct {
		name, ctype string
		body        []byte
	}{{"spec", "application/json", spec}, {"data", "text/csv", data}} {
		h := textproto.MIMEHeader{}
		h.Set("Content-Disposition", fmt.Sprintf(`form-data; name=%q`, part.name))
		h.Set("Content-Type", part.ctype)
		w, err := mw.CreatePart(h)
		if err != nil {
			return "", nil, err
		}
		if _, err := w.Write(part.body); err != nil {
			return "", nil, err
		}
	}
	if err := mw.Close(); err != nil {
		return "", nil, err
	}
	return mw.FormDataContentType(), buf.Bytes(), nil
}
