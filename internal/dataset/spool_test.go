package dataset

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"randpriv/internal/mat"
)

// bytesSpool adapts an in-memory spool to the reopenable contract.
type bytesSpool struct{ *bytes.Reader }

func (bytesSpool) Close() error { return nil }

func spoolOpener(b []byte) func() (io.ReadSeekCloser, error) {
	return func() (io.ReadSeekCloser, error) { return bytesSpool{bytes.NewReader(b)}, nil }
}

// spoolEdgeTable is a table whose values stress the encoding: signed
// zero, the smallest subnormal, both extremes and 17-significant-digit
// values that only round-trip through CSV with shortest-exact
// formatting.
func spoolEdgeTable(t *testing.T, n int) *Table {
	t.Helper()
	edges := []float64{
		math.Copysign(0, -1), 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
		0.10000000000000002, 1.2345678901234567e-100, -9.8765432109876543e200, 0,
	}
	const m = 3
	rng := rand.New(rand.NewSource(7))
	data := make([]float64, n*m)
	for i := range data {
		if i < len(edges) {
			data[i] = edges[i]
		} else {
			data[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		}
	}
	tb, err := New([]string{"a", "b", "c"}, mat.New(n, m, data))
	if err != nil {
		t.Fatal(err)
	}
	return tb
}

// spoolFromCSV writes the spool the way the server does: every chunk
// of a CSV pass appended in order, then Finish.
func spoolFromCSV(t *testing.T, csv []byte, writeChunk int) []byte {
	t.Helper()
	src, err := ReadCSVChunks(func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(csv)), nil }, writeChunk)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var out bytes.Buffer
	w, err := NewBinaryWriter(&out, len(src.Names()))
	if err != nil {
		t.Fatal(err)
	}
	for {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestBinarySourceMatchesChunkSource: over the same data, the binary
// reader yields exactly the CSV reader's chunk partition and values,
// bit for bit, on every pass and at every chunk size.
func TestBinarySourceMatchesChunkSource(t *testing.T) {
	const n = 150
	tb := spoolEdgeTable(t, n)
	var csv bytes.Buffer
	if err := tb.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	spool := spoolFromCSV(t, csv.Bytes(), 11) // writer chunking is independent of the reader's
	for _, chunk := range []int{1, 7, 64, n} {
		want, err := ReadCSVChunks(func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(csv.Bytes())), nil }, chunk)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ReadBinaryChunks(spoolOpener(spool), chunk)
		if err != nil {
			t.Fatal(err)
		}
		if got.Rows() != n {
			t.Fatalf("chunk=%d: spool has %d rows, want %d", chunk, got.Rows(), n)
		}
		for pass := 0; pass < 2; pass++ {
			if err := want.Reset(); err != nil {
				t.Fatal(err)
			}
			if err := got.Reset(); err != nil {
				t.Fatal(err)
			}
			for c := 0; ; c++ {
				wc, werr := want.Next()
				gc, gerr := got.Next()
				if werr == io.EOF || gerr == io.EOF {
					if werr != gerr {
						t.Fatalf("chunk=%d pass %d chunk %d: csv err %v, spool err %v", chunk, pass, c, werr, gerr)
					}
					break
				}
				if werr != nil || gerr != nil {
					t.Fatalf("chunk=%d pass %d chunk %d: csv err %v, spool err %v", chunk, pass, c, werr, gerr)
				}
				wr, wm := wc.Dims()
				gr, gm := gc.Dims()
				if wr != gr || wm != gm {
					t.Fatalf("chunk=%d pass %d chunk %d: spool %d×%d, csv %d×%d", chunk, pass, c, gr, gm, wr, wm)
				}
				for i := 0; i < wr; i++ {
					for j, v := range wc.RawRow(i) {
						if g := gc.At(i, j); math.Float64bits(g) != math.Float64bits(v) {
							t.Fatalf("chunk=%d pass %d chunk %d (%d,%d): spool %v, csv %v", chunk, pass, c, i, j, g, v)
						}
					}
				}
			}
		}
		want.Close()
		got.Close()
	}
}

// TestBinarySourceResetMidPassAndDoubleClose: a Reset in the middle of
// a pass starts over from row 0, Close is idempotent, a closed source
// refuses Next, and Reset revives it.
func TestBinarySourceResetMidPassAndDoubleClose(t *testing.T) {
	tb := spoolEdgeTable(t, 20)
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(tb.Data()); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	src, err := ReadBinaryChunks(spoolOpener(buf.Bytes()), 6)
	if err != nil {
		t.Fatal(err)
	}
	drain := func() int {
		rows := 0
		for {
			c, err := src.Next()
			if err == io.EOF {
				return rows
			}
			if err != nil {
				t.Fatal(err)
			}
			if rows == 0 && math.Float64bits(c.At(0, 0)) != math.Float64bits(math.Copysign(0, -1)) {
				t.Fatalf("first value after reset = %v, want -0", c.At(0, 0))
			}
			rows += c.Rows()
		}
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if rows := drain(); rows != 20 {
		t.Fatalf("pass after a mid-pass Reset read %d rows, want 20", rows)
	}
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("Next past the end = %v, want io.EOF", err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatalf("second Close = %v, want nil", err)
	}
	if _, err := src.Next(); err == nil {
		t.Fatal("Next on a closed source succeeded")
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if rows := drain(); rows != 20 {
		t.Fatalf("pass after reviving Reset read %d rows, want 20", rows)
	}
}

// TestBinarySourceRejectsTornSpool: every strict prefix of a spool —
// cut inside the header, inside a row, on a row boundary, inside the
// trailer — is an error when opened, never a short data set.
func TestBinarySourceRejectsTornSpool(t *testing.T) {
	tb := spoolEdgeTable(t, 9)
	var buf bytes.Buffer
	w, err := NewBinaryWriter(&buf, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(tb.Data()); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 0; cut < len(full); cut++ {
		if _, err := ReadBinaryChunks(spoolOpener(full[:cut]), 4); err == nil {
			t.Fatalf("spool cut to %d of %d bytes opened without error", cut, len(full))
		}
	}
	// A torn write that lost a row but still got its trailer out.
	rowLost := append(append([]byte(nil), full[:spoolHeader+24]...), full[spoolHeader+48:]...)
	if _, err := ReadBinaryChunks(spoolOpener(rowLost), 4); err == nil {
		t.Fatal("spool missing a row opened without error")
	}
	corrupt := func(name string, off int, b []byte) {
		bad := append([]byte(nil), full...)
		copy(bad[off:], b)
		if _, err := ReadBinaryChunks(spoolOpener(bad), 4); err == nil {
			t.Errorf("%s: corrupted spool opened without error", name)
		}
	}
	corrupt("bad magic", 0, []byte("CSVFILE!"))
	corrupt("bad version", 8, []byte{2, 0, 0, 0})
	corrupt("zero columns", 12, []byte{0, 0, 0, 0})
	corrupt("row count too high", len(full)-spoolTrailer, []byte{10})
	corrupt("bad end magic", len(full)-8, []byte("RPF64EN?"))
}

// TestBinarySourceShapeChangeBetweenPasses: a spool replaced between
// passes with one of another shape fails the Reset.
func TestBinarySourceShapeChangeBetweenPasses(t *testing.T) {
	mk := func(n, m int) []byte {
		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf, m)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(mat.New(n, m, make([]float64, n*m))); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	files := [][]byte{mk(4, 2), mk(5, 2)}
	pass := 0
	src, err := ReadBinaryChunks(func() (io.ReadSeekCloser, error) {
		b := files[pass]
		pass++
		return bytesSpool{bytes.NewReader(b)}, nil
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Reset(); err == nil || !strings.Contains(err.Error(), "changed between passes") {
		t.Fatalf("Reset over a reshaped spool = %v, want a changed-between-passes error", err)
	}
}

func TestBinaryWriterRejectsMisuse(t *testing.T) {
	if _, err := NewBinaryWriter(io.Discard, 0); err == nil {
		t.Error("zero-column spool accepted")
	}
	w, err := NewBinaryWriter(io.Discard, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mat.New(1, 3, make([]float64, 3))); err == nil {
		t.Error("3-column chunk appended to a 2-column spool")
	}
	if err := w.Finish(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(mat.New(1, 2, make([]float64, 2))); err == nil {
		t.Error("append after Finish accepted")
	}
	if err := w.Finish(); err == nil {
		t.Error("second Finish accepted")
	}
	if _, err := ReadBinaryChunks(spoolOpener(nil), 0); err == nil {
		t.Error("chunk size 0 accepted")
	}
}

// FuzzBinarySpool: any float64 bit patterns written through the spool
// read back identical, in order, at any chunking; and arbitrary bytes
// offered as a spool are either rejected or read back consistently —
// never a panic.
func FuzzBinarySpool(f *testing.F) {
	f.Add([]byte{}, 1, 1)
	f.Add(make([]byte, 48), 3, 1)
	f.Add(make([]byte, 8*7*5), 7, 4)
	f.Fuzz(func(t *testing.T, data []byte, cols, chunkRows int) {
		if cols < 1 || cols > 16 || chunkRows < 1 || chunkRows > 64 {
			return
		}
		n := len(data) / (8 * cols)
		vals := make([]float64, n*cols)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var buf bytes.Buffer
		w, err := NewBinaryWriter(&buf, cols)
		if err != nil {
			t.Fatal(err)
		}
		// Append in writer chunks of a different size than the reader's.
		for lo := 0; lo < n; lo += chunkRows + 1 {
			hi := lo + chunkRows + 1
			if hi > n {
				hi = n
			}
			if err := w.Append(mat.New(hi-lo, cols, vals[lo*cols:hi*cols])); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Finish(); err != nil {
			t.Fatal(err)
		}
		src, err := ReadBinaryChunks(spoolOpener(buf.Bytes()), chunkRows)
		if err != nil {
			t.Fatalf("reading back a finished spool: %v", err)
		}
		k := 0
		for {
			c, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if c.Rows() > chunkRows {
				t.Fatalf("chunk of %d rows, want <= %d", c.Rows(), chunkRows)
			}
			for i := 0; i < c.Rows(); i++ {
				for _, v := range c.RawRow(i) {
					if math.Float64bits(v) != math.Float64bits(vals[k]) {
						t.Fatalf("value %d: bits %x, want %x", k, math.Float64bits(v), math.Float64bits(vals[k]))
					}
					k++
				}
			}
		}
		if k != len(vals) {
			t.Fatalf("read back %d values, wrote %d", k, len(vals))
		}

		// The raw input as a (hostile) spool.
		hostile, err := ReadBinaryChunks(spoolOpener(data), chunkRows)
		if err != nil {
			return
		}
		var rows int64
		for {
			c, err := hostile.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("accepted spool failed mid-pass: %v", err)
			}
			rows += int64(c.Rows())
		}
		if rows != hostile.Rows() {
			t.Fatalf("accepted spool yielded %d rows, trailer says %d", rows, hostile.Rows())
		}
	})
}
