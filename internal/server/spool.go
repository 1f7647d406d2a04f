package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"

	"randpriv/internal/dataset"
	"randpriv/internal/faultfs"
	"randpriv/internal/stream"
)

// upload is a request body spooled to a temporary file. Spooling is what
// keeps the service out-of-core: the two-pass attacks and the correlated
// scheme need to re-read their input (stream.Source.Reset), which an
// HTTP body cannot do, so the body is copied once to disk — through a
// SHA-256 digest, never through memory — and every pass streams from the
// file in fixed-size chunks.
type upload struct {
	path   string
	digest string // hex SHA-256 of the raw body bytes
	fs     faultfs.FS
}

// spoolBody copies r to a temp file in dir, hashing as it goes. The
// caller owns the returned upload and must Remove it. A failed copy —
// including an injected storage fault — removes the partial file and
// surfaces a clean error before any response byte is written; there is
// no retry because r is a one-shot network body.
func spoolBody(fsys faultfs.FS, dir string, r io.Reader) (*upload, error) {
	fsys = faultfs.Default(fsys)
	f, err := fsys.CreateTemp(dir, "randprivd-*.csv")
	if err != nil {
		return nil, fmt.Errorf("server: spool upload: %w", err)
	}
	h := sha256.New()
	_, err = io.Copy(io.MultiWriter(f, h), r)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fsys.Remove(f.Name())
		return nil, err
	}
	return &upload{
		path:   f.Name(),
		digest: hex.EncodeToString(h.Sum(nil)),
		fs:     fsys,
	}, nil
}

// Remove deletes the spool file.
func (u *upload) Remove() {
	if u != nil {
		faultfs.Default(u.fs).Remove(u.path)
	}
}

// writeSpool fills a fresh binary float64 spool of m columns (see
// dataset.BinaryWriter) in the spool directory and returns its path;
// the caller removes it with s.fs.Remove. kind names the spool in its
// file name. A failed fill — or an injected storage fault — removes the
// partial file before the error comes back.
func (s *Server) writeSpool(kind string, m int, fill func(stream.Sink) error) (string, error) {
	f, err := s.fs.CreateTemp(s.cfg.SpoolDir, "randprivd-"+kind+"-*.f64")
	if err != nil {
		return "", fmt.Errorf("server: create %s spool: %w", kind, err)
	}
	bw, err := dataset.NewBinaryWriter(f, m)
	if err == nil {
		err = fill(bw)
	}
	if err == nil {
		err = bw.Finish()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		s.fs.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// openSpool opens a chunked source over a spool writeSpool made.
func (s *Server) openSpool(path string, chunk int) (*dataset.BinarySource, error) {
	return dataset.ReadBinaryChunks(func() (io.ReadSeekCloser, error) { return s.fs.Open(path) }, chunk)
}

// parseOnce runs the validating pass over an uploaded CSV — the only
// time a request decodes it — and tees every validated chunk into a
// binary spool, which it opens for every later pass. The caller must
// call release, which closes and removes the spool. A malformed upload
// is a 400 (see validateUpload); a spool write failure keeps its own
// status.
func (s *Server) parseOnce(csv stream.Source, cols, chunk int) (rows int64, orig *dataset.BinarySource, release func(), err error) {
	path, err := s.writeSpool("orig", cols, func(sink stream.Sink) error {
		rows, err = validateUpload(csv, cols, sink)
		return err
	})
	if err != nil {
		return 0, nil, nil, err
	}
	orig, err = s.openSpool(path, chunk)
	if err != nil {
		s.fs.Remove(path)
		return 0, nil, nil, err
	}
	return rows, orig, func() {
		orig.Close()
		s.fs.Remove(path)
	}, nil
}

// ctxReader bounds a body read by the request deadline: each Read
// checks the context first, so a client trickling its upload cannot
// hold a spooling goroutine past the per-request timeout. Its chunk
// stream analogue is stream.ContextSource, which the compute paths wrap
// around every source.
type ctxReader struct {
	ctx context.Context
	r   io.Reader
}

func (c ctxReader) Read(p []byte) (int, error) {
	if err := c.ctx.Err(); err != nil {
		return 0, err
	}
	return c.r.Read(p)
}
