package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"mcpaging/internal/core"
)

// refReadBinary is the byte-at-a-time decoder that preceded the
// windowed one, kept as the differential oracle: one
// binary.ReadVarint(io.ByteReader) call per page and no request
// budget. Only its allocation differs — sequences grow by append
// rather than being made at their claimed length — so a fuzzed header
// cannot stall the fuzzer.
func refReadBinary(r io.Reader) (core.RequestSet, error) {
	br := bufio.NewReader(r)
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short binary header: %w", err)
	}
	for i, b := range binaryMagic {
		if head[i] != b {
			return nil, fmt.Errorf("trace: bad binary magic")
		}
	}
	p, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if p < 1 || p > 1<<20 {
		return nil, fmt.Errorf("trace: implausible core count %d", p)
	}
	var rs core.RequestSet
	for j := uint64(0); j < p; j++ {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > 1<<28 {
			return nil, fmt.Errorf("trace: implausible sequence length %d", n)
		}
		seq := make(core.Sequence, 0, min(n, 1<<16))
		prev := int64(0)
		for i := uint64(0); i < n; i++ {
			delta, err := binary.ReadVarint(br)
			if err != nil {
				return nil, err
			}
			prev += delta
			if prev < 0 || prev > 1<<31-1 {
				return nil, fmt.Errorf("trace: page %d out of range", prev)
			}
			seq = append(seq, core.PageID(prev))
		}
		rs = append(rs, seq)
	}
	return rs, nil
}

// errClass reduces a decode error to what went wrong, dropping where:
// the reference decoder's errors do not say where.
func errClass(err error) string {
	if err == nil {
		return "ok"
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return "truncated"
	}
	for _, c := range []string{"varint overflows", "out of range", "implausible core count",
		"implausible sequence length", "bad binary magic"} {
		if strings.Contains(err.Error(), c) {
			return c
		}
	}
	return "unclassified: " + err.Error()
}

// decodeChunked drains a decoder through a chunk-sized buffer, so
// Read calls end at arbitrary points inside the buffered window.
func decodeChunked(d *Decoder, chunk int) (core.RequestSet, error) {
	var rs core.RequestSet
	buf := make(core.Sequence, chunk)
	for {
		_, err := d.NextCore()
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, err
		}
		seq := core.Sequence{}
		for {
			m, err := d.Read(buf)
			seq = append(seq, buf[:m]...)
			if err == io.EOF {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		rs = append(rs, seq)
	}
}

// sources wrap a trace's bytes in readers that fill the decoder's
// bufio window in different steps: all at once, one byte per read, and
// half of what is asked.
var sources = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"whole", func(r io.Reader) io.Reader { return r }},
	{"one-byte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// checkAgainstReference decodes data with the reference decoder and,
// through every source and the given window size and chunk, with
// ReadBinary and the streaming Decoder; all must agree on the request
// set or on the error class.
func checkAgainstReference(t *testing.T, data []byte, window, chunk int) {
	t.Helper()
	want, wantErr := refReadBinary(bytes.NewReader(data))
	if wantErr != nil {
		want = nil
	}
	for _, src := range sources {
		br := bufio.NewReaderSize(src.wrap(bytes.NewReader(data)), window)
		got, err := ReadBinary(br, math.MaxInt)
		if errClass(err) != errClass(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("ReadBinary, %s source, window %d: got %v (%d cores), want %v (%d cores)",
				src.name, window, err, len(got), wantErr, len(want))
		}
		br = bufio.NewReaderSize(src.wrap(bytes.NewReader(data)), window)
		d, err := NewDecoder(br, math.MaxInt)
		if err == nil {
			got, err = decodeChunked(d, chunk)
		}
		if errClass(err) != errClass(wantErr) || !reflect.DeepEqual(got, want) {
			t.Fatalf("Decoder, %s source, window %d, chunk %d: got %v (%d cores), want %v (%d cores)",
				src.name, window, chunk, err, len(got), wantErr, len(want))
		}
	}
}

// randomDeltaSet draws a request set of up to four cores of up to
// maxLen requests each.
func randomDeltaSet(rng *rand.Rand, maxLen int) core.RequestSet {
	rs := make(core.RequestSet, 1+rng.Intn(4))
	for j := range rs {
		rs[j] = randomDeltas(rng, rng.Intn(maxLen+1))
	}
	return rs
}

// randomDeltas draws a sequence whose deltas mix 1-, 2- and 5-byte
// varints, so varints of every width straddle the window edge.
func randomDeltas(rng *rand.Rand, n int) core.Sequence {
	s := make(core.Sequence, n)
	pg := int64(rng.Intn(1 << 12))
	for i := range s {
		switch rng.Intn(3) {
		case 0: // |delta| < 64: one byte
			pg += int64(rng.Intn(127)) - 63
		case 1: // |delta| < 8192: up to two bytes
			pg += int64(rng.Intn(16383)) - 8191
		default: // a jump across the ID range: five bytes
			pg = int64(rng.Intn(1<<31-1<<28)) + 1<<28
			if rng.Intn(2) == 0 {
				pg = int64(rng.Intn(64))
			}
		}
		pg = max(0, min(pg, 1<<31-1))
		s[i] = core.PageID(pg)
	}
	return s
}

// corrupt damages an encoded trace the ways a network body can be
// damaged — cut short, a byte changed, or an overflowing varint spliced
// in — or, one time in four, leaves it whole.
func corrupt(rng *rand.Rand, data []byte) []byte {
	out := append([]byte(nil), data...)
	switch rng.Intn(4) {
	case 0:
		return out[:rng.Intn(len(out)+1)]
	case 1:
		out[rng.Intn(len(out))] = byte(rng.Intn(256))
		return out
	case 2:
		at := rng.Intn(len(out) + 1)
		bad := bytes.Repeat([]byte{0xff}, 10+rng.Intn(2))
		return append(out[:at:at], append(bad, out[at:]...)...)
	}
	return out
}

func TestDecoderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	windows := []int{16, 17, 19, 23, 31, 64, 4096}
	for iter := 0; iter < 300; iter++ {
		var bin bytes.Buffer
		if err := WriteBinary(&bin, randomDeltaSet(rng, 200)); err != nil {
			t.Fatal(err)
		}
		data := bin.Bytes()
		if iter%2 == 1 {
			data = corrupt(rng, data)
		}
		checkAgainstReference(t, data, windows[iter%len(windows)], 1+rng.Intn(40))
	}
	// A core longer than ReadAll's 64K initial allocation, so the
	// sequence grows while it decodes.
	var bin bytes.Buffer
	if err := WriteBinary(&bin, core.RequestSet{{}, randomDeltas(rng, 150_000)}); err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, bin.Bytes(), 4096, 1<<16)
}

// FuzzDecoderDifferential compares the windowed decoder against the
// reference byte-at-a-time decoder on arbitrary bytes, window sizes and
// read chunk sizes.
func FuzzDecoderDifferential(f *testing.F) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 4; i++ {
		var bin bytes.Buffer
		if err := WriteBinary(&bin, randomDeltaSet(rng, 30)); err != nil {
			f.Fatal(err)
		}
		f.Add(bin.Bytes(), uint8(i), uint8(7*i))
		f.Add(corrupt(rng, bin.Bytes()), uint8(i+5), uint8(3*i))
	}
	f.Fuzz(func(t *testing.T, data []byte, window, chunk uint8) {
		checkAgainstReference(t, data, 16+int(window), 1+int(chunk))
	})
}
