// Binary chunk spool — the parse-once re-read format. CSV is the
// exchange format at the edges (uploads, CLI files, response bodies),
// but decoding it dominates every pass of a two-pass attack. A data set
// that has been validated once is therefore spooled as raw little-endian
// float64 rows, and every later pass reads those instead of re-parsing
// text.
//
// Layout (all integers little-endian):
//
//	header  16 bytes  magic "RPF64SPL", version uint32, columns m uint32
//	rows    n·m·8     row-major float64 bit patterns
//	trailer 16 bytes  row count n uint64, end magic "RPF64END"
//
// The trailer is written last, so a spool whose writer died midway has
// no valid trailer, and its length must equal 32 + n·m·8 exactly: a
// torn or short file is an error on open, never a silent early EOF.
// Values round-trip bit for bit (−0, subnormals, every NaN payload), so
// a pass over the spool sees exactly the float64s the validating pass
// decoded from CSV.

package dataset

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"randpriv/internal/mat"
)

const (
	spoolMagic   = "RPF64SPL"
	spoolEnd     = "RPF64END"
	spoolVersion = 1
	spoolHeader  = 16
	spoolTrailer = 16
	// spoolBuffer is the read/write buffer size; chunks larger than it
	// bypass the buffer.
	spoolBuffer = 64 << 10
)

// BinaryWriter writes a binary spool incrementally, one chunk of rows
// per Append. It implements stream.Sink. Finish must be called once all
// rows are in: it writes the trailer that makes the spool readable.
type BinaryWriter struct {
	bw   *bufio.Writer
	m    int
	rows int64
	raw  []byte // encode scratch, grown to the largest chunk seen
	done bool
}

// NewBinaryWriter starts an m-column spool on w (m >= 1) and buffers
// the header. w is not closed by the writer.
func NewBinaryWriter(w io.Writer, m int) (*BinaryWriter, error) {
	if m < 1 || uint64(m) > math.MaxUint32 {
		return nil, fmt.Errorf("dataset: spool of %d columns, want >= 1", m)
	}
	bw := bufio.NewWriterSize(w, spoolBuffer)
	var hdr [spoolHeader]byte
	copy(hdr[:8], spoolMagic)
	binary.LittleEndian.PutUint32(hdr[8:], spoolVersion)
	binary.LittleEndian.PutUint32(hdr[12:], uint32(m))
	if _, err := bw.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("dataset: write spool header: %w", err)
	}
	return &BinaryWriter{bw: bw, m: m}, nil
}

// Append implements stream.Sink.
func (w *BinaryWriter) Append(chunk *mat.Dense) error {
	if w.done {
		return fmt.Errorf("dataset: append to a finished spool")
	}
	n, m := chunk.Dims()
	if m != w.m {
		return fmt.Errorf("dataset: appending %d-column chunk to %d-column spool", m, w.m)
	}
	if need := n * m * 8; cap(w.raw) < need {
		w.raw = make([]byte, need)
	}
	raw := w.raw[:n*m*8]
	k := 0
	for i := 0; i < n; i++ {
		for _, v := range chunk.RawRow(i) {
			binary.LittleEndian.PutUint64(raw[k:], math.Float64bits(v))
			k += 8
		}
	}
	if _, err := w.bw.Write(raw); err != nil {
		return fmt.Errorf("dataset: write spool rows: %w", err)
	}
	w.rows += int64(n)
	return nil
}

// Finish writes the trailer and flushes everything to the underlying
// writer. No row can be appended afterwards.
func (w *BinaryWriter) Finish() error {
	if w.done {
		return fmt.Errorf("dataset: spool finished twice")
	}
	w.done = true
	var tr [spoolTrailer]byte
	binary.LittleEndian.PutUint64(tr[:8], uint64(w.rows))
	copy(tr[8:], spoolEnd)
	if _, err := w.bw.Write(tr[:]); err != nil {
		return fmt.Errorf("dataset: write spool trailer: %w", err)
	}
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("dataset: flush spool: %w", err)
	}
	return nil
}

// BinarySource reads a binary spool in fixed-size row chunks — the same
// partition a ChunkSource with the same chunkRows yields over the CSV
// the spool was made from. It implements stream.Source: Next yields
// chunks that are only valid until the following Next/Reset call, and
// Reset reopens the file for another pass.
type BinarySource struct {
	open      func() (io.ReadSeekCloser, error)
	chunkRows int
	m         int
	rows      int64 // row count from the trailer, fixed by the first open
	left      int64 // rows still to read in this pass
	rc        io.ReadSeekCloser
	br        *bufio.Reader
	raw       []byte    // read buffer for one chunk of encoded rows
	buf       []float64 // decoded chunk, reused every Next
}

// ReadBinaryChunks builds a chunked source over a reopenable spool:
// open is called once per pass (construction counts as the first pass).
func ReadBinaryChunks(open func() (io.ReadSeekCloser, error), chunkRows int) (*BinarySource, error) {
	if chunkRows < 1 {
		return nil, fmt.Errorf("dataset: chunk size %d, want >= 1", chunkRows)
	}
	s := &BinarySource{open: open, chunkRows: chunkRows}
	if err := s.Reset(); err != nil {
		return nil, err
	}
	return s, nil
}

// OpenBinaryChunks is ReadBinaryChunks over a file path.
func OpenBinaryChunks(path string, chunkRows int) (*BinarySource, error) {
	return ReadBinaryChunks(func() (io.ReadSeekCloser, error) { return os.Open(path) }, chunkRows)
}

// Rows returns the spool's row count n.
func (s *BinarySource) Rows() int64 { return s.rows }

// Reset implements stream.Source: it closes the current reader, reopens
// the spool, checks its header, trailer and length, and rewinds to the
// first row. A spool whose shape changed between passes is an error —
// it would silently misalign the two-pass attacks.
func (s *BinarySource) Reset() error {
	if err := s.Close(); err != nil {
		return err
	}
	rc, err := s.open()
	if err != nil {
		return fmt.Errorf("dataset: reopen spool: %w", err)
	}
	m, rows, err := readSpoolFrame(rc)
	if err != nil {
		rc.Close()
		return err
	}
	if s.buf == nil {
		s.m, s.rows = m, rows
		// Sized by the smaller of the chunk and the file, so a hostile
		// header cannot make this allocate more than the spool holds.
		per := int64(s.chunkRows)
		if rows < per {
			per = rows
		}
		s.raw = make([]byte, per*int64(m)*8)
		s.buf = make([]float64, per*int64(m))
	} else if m != s.m || rows != s.rows {
		rc.Close()
		return fmt.Errorf("dataset: spool changed between passes: %d×%d, want %d×%d", rows, m, s.rows, s.m)
	}
	if s.br == nil {
		s.br = bufio.NewReaderSize(rc, spoolBuffer)
	} else {
		s.br.Reset(rc)
	}
	s.rc, s.left = rc, rows
	return nil
}

// readSpoolFrame validates the header and trailer of the spool behind
// rc against its length and leaves rc positioned at the first row.
func readSpoolFrame(rc io.ReadSeeker) (m int, rows int64, err error) {
	size, err := rc.Seek(0, io.SeekEnd)
	if err != nil {
		return 0, 0, fmt.Errorf("dataset: spool size: %w", err)
	}
	if size < spoolHeader+spoolTrailer {
		return 0, 0, fmt.Errorf("dataset: spool is %d bytes, shorter than its %d-byte frame", size, spoolHeader+spoolTrailer)
	}
	var tr [spoolTrailer]byte
	if _, err := rc.Seek(size-spoolTrailer, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("dataset: spool trailer: %w", err)
	}
	if _, err := io.ReadFull(rc, tr[:]); err != nil {
		return 0, 0, fmt.Errorf("dataset: spool trailer: %w", err)
	}
	if string(tr[8:]) != spoolEnd {
		return 0, 0, errors.New("dataset: spool has no end marker (torn or truncated write)")
	}
	var hdr [spoolHeader]byte
	if _, err := rc.Seek(0, io.SeekStart); err != nil {
		return 0, 0, fmt.Errorf("dataset: spool header: %w", err)
	}
	if _, err := io.ReadFull(rc, hdr[:]); err != nil {
		return 0, 0, fmt.Errorf("dataset: spool header: %w", err)
	}
	if string(hdr[:8]) != spoolMagic {
		return 0, 0, errors.New("dataset: not a binary spool (bad magic)")
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != spoolVersion {
		return 0, 0, fmt.Errorf("dataset: spool version %d, want %d", v, spoolVersion)
	}
	m = int(binary.LittleEndian.Uint32(hdr[12:]))
	n := binary.LittleEndian.Uint64(tr[:8])
	body := uint64(size - spoolHeader - spoolTrailer)
	if m < 1 || n > body/(uint64(m)*8) || n*uint64(m)*8 != body {
		return 0, 0, fmt.Errorf("dataset: spool holds %d body bytes, want %d rows × %d columns (torn or truncated write)", body, n, m)
	}
	return m, int64(n), nil
}

// Next implements stream.Source, returning up to chunkRows rows. The
// returned matrix aliases the source's reused buffer.
func (s *BinarySource) Next() (*mat.Dense, error) {
	if s.rc == nil {
		return nil, fmt.Errorf("dataset: source is closed")
	}
	if s.left == 0 {
		return nil, io.EOF
	}
	rows := int64(s.chunkRows)
	if s.left < rows {
		rows = s.left
	}
	k := int(rows) * s.m
	raw := s.raw[:k*8]
	if _, err := io.ReadFull(s.br, raw); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("dataset: read spool row %d: %w", s.rows-s.left, err)
	}
	for i := range s.buf[:k] {
		s.buf[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	s.left -= rows
	return mat.New(int(rows), s.m, s.buf[:k]), nil
}

// Close releases the underlying file. The source can be revived with
// Reset; closing a closed source is a no-op.
func (s *BinarySource) Close() error {
	if s.rc == nil {
		return nil
	}
	err := s.rc.Close()
	s.rc = nil
	return err
}
