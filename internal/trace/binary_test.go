package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"mcpaging/internal/core"
)

func randomSet(rng *rand.Rand) core.RequestSet {
	rs := make(core.RequestSet, 1+rng.Intn(4))
	for j := range rs {
		s := make(core.Sequence, rng.Intn(80))
		for i := range s {
			s[i] = core.PageID(rng.Intn(1 << 18))
		}
		rs[j] = s
	}
	return rs
}

func TestBinaryRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomSet(rng)
		var buf bytes.Buffer
		if err := WriteBinary(&buf, rs); err != nil {
			return false
		}
		got, err := ReadBinary(&buf, math.MaxInt)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, rs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryCompact(t *testing.T) {
	// A loop trace delta-encodes to ~1 byte per request; the text format
	// needs several.
	seq := make(core.Sequence, 10000)
	for i := range seq {
		seq[i] = core.PageID(i % 64)
	}
	rs := core.RequestSet{seq}
	var txt, bin bytes.Buffer
	if err := Write(&txt, rs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= txt.Len()/2 {
		t.Fatalf("binary %d bytes vs text %d: expected at least 2x compaction", bin.Len(), txt.Len())
	}
}

func TestReadAutoDetects(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3}, {7}}
	var txt, bin bytes.Buffer
	if err := Write(&txt, rs); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadAuto(&txt)
	if err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("auto text: %v %v", got, err)
	}
	got, err = ReadAuto(&bin)
	if err != nil || !reflect.DeepEqual(got, rs) {
		t.Fatalf("auto binary: %v %v", got, err)
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		{},
		[]byte("MCP"),
		[]byte("MCPT\x02"),             // wrong version
		[]byte("MCPT\x01"),             // missing body
		[]byte("MCPT\x01\x00"),         // zero cores
		[]byte("MCPT\x01\x01\x05\x02"), // truncated payload
	}
	for i, c := range cases {
		if _, err := ReadBinary(bytes.NewReader(c), math.MaxInt); err == nil {
			t.Errorf("case %d should fail", i)
		}
	}
}

// TestDecoderErrorsNameWhere pins the decoder's error messages: each
// names the core, the request (or the core's length field) and the
// byte offset of the varint at fault, and what was wrong with it.
func TestDecoderErrorsNameWhere(t *testing.T) {
	var twoCores bytes.Buffer
	if err := WriteBinary(&twoCores, core.RequestSet{make(core.Sequence, 600), make(core.Sequence, 600)}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		data   string
		budget int
		want   string
	}{
		{"truncated core count", "MCPT\x01", math.MaxInt,
			"trace: core count at byte 5: truncated varint: unexpected EOF"},
		{"truncated length", "MCPT\x01\x02\x01\x00", math.MaxInt,
			"trace: core 1 length at byte 8: truncated varint: unexpected EOF"},
		{"truncated at a request boundary", "MCPT\x01\x01\x03\x02", math.MaxInt,
			"trace: core 0 request 1 at byte 8: truncated varint: unexpected EOF"},
		{"truncated inside a varint", "MCPT\x01\x01\x03\x02\x80", math.MaxInt,
			"trace: core 0 request 1 at byte 8: truncated varint: unexpected EOF"},
		{"overflow", "MCPT\x01\x01\x01" + strings.Repeat("\xff", 10) + "\x01", math.MaxInt,
			"trace: core 0 request 0 at byte 7: varint overflows 64 bits"},
		{"negative page", "MCPT\x01\x02\x01\x02\x02\x01", math.MaxInt,
			"trace: core 1 request 0 at byte 9: page -1 out of range [0, 2^31-1]"},
		{"page above 2^31-1", "MCPT\x01\x01\x01\x80\x80\x80\x80\x10", math.MaxInt,
			"trace: core 0 request 0 at byte 7: page 2147483648 out of range [0, 2^31-1]"},
		{"implausible length", "MCPT\x01\x01\x81\x80\x80\x80\x01", math.MaxInt,
			"trace: core 0 length at byte 6: implausible sequence length 268435457"},
		{"cores over budget", "MCPT\x01\x05", 4,
			"trace: header claims 5 cores, over the request budget of 4"},
		{"length over budget", "MCPT\x01\x01\x80\x80\x80\x80\x01\x00", 1024,
			"trace: core 0 length at byte 6: claims 268435456 requests, over the request budget of 1024 (0 claimed by earlier cores)"},
		{"running total over budget", twoCores.String(), 1000,
			"trace: core 1 length at byte 608: claims 600 requests, over the request budget of 1000 (600 claimed by earlier cores)"},
	}
	for _, c := range cases {
		_, err := ReadBinary(strings.NewReader(c.data), c.budget)
		if err == nil || err.Error() != c.want {
			t.Errorf("%s:\n got %v\nwant %s", c.name, err, c.want)
		}
	}
}

// TestDecoderStreamsInChunks round-trips traces through the streaming
// decoder with a deliberately tiny buffer, so every core crosses many
// Read calls, and checks the reassembled set — including empty
// sequences, which exercise the zero-length NextCore path.
func TestDecoderStreamsInChunks(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := randomSet(rng)
		var bin bytes.Buffer
		if err := WriteBinary(&bin, rs); err != nil {
			return false
		}
		d, err := NewDecoder(&bin, math.MaxInt)
		if err != nil {
			return false
		}
		if d.NumCores() != len(rs) {
			return false
		}
		buf := make([]core.Sequence, 0, len(rs))
		chunk := make(core.Sequence, 7)
		for {
			n, err := d.NextCore()
			if err == io.EOF {
				break
			}
			if err != nil {
				return false
			}
			seq := make(core.Sequence, 0, n)
			for {
				m, err := d.Read(chunk)
				if err == io.EOF {
					break
				}
				if err != nil {
					return false
				}
				seq = append(seq, chunk[:m]...)
			}
			buf = append(buf, seq)
		}
		got := core.RequestSet(buf)
		if len(got) != len(rs) {
			return false
		}
		for c := range rs {
			if len(got[c]) != len(rs[c]) {
				return false
			}
			for i := range rs[c] {
				if got[c][i] != rs[c][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDecoderMisuse pins the decoder's contract errors: NextCore with
// pages unread, NextCore past the last core, and reads on a finished
// core.
func TestDecoderMisuse(t *testing.T) {
	rs := core.RequestSet{{1, 2, 3}, {7}}
	var bin bytes.Buffer
	if err := WriteBinary(&bin, rs); err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(&bin, math.MaxInt)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := d.NextCore(); n != 3 || err != nil {
		t.Fatalf("NextCore = %d, %v", n, err)
	}
	if _, err := d.NextCore(); err == nil {
		t.Fatal("NextCore with unread pages should fail")
	}
	buf := make(core.Sequence, 8)
	if m, err := d.Read(buf); m != 3 || err != nil {
		t.Fatalf("Read = %d, %v", m, err)
	}
	if _, err := d.Read(buf); err != io.EOF {
		t.Fatalf("Read at core end = %v, want io.EOF", err)
	}
	if n, err := d.NextCore(); n != 1 || err != nil {
		t.Fatalf("NextCore = %d, %v", n, err)
	}
	if m, err := d.Read(buf); m != 1 || err != nil {
		t.Fatalf("Read = %d, %v", m, err)
	}
	if _, err := d.NextCore(); err != io.EOF {
		t.Fatalf("NextCore past last core = %v, want io.EOF", err)
	}
}

// FuzzReadAuto ensures arbitrary input never panics the parsers and
// that a decoded binary trace is no larger than its input.
func FuzzReadAuto(f *testing.F) {
	rs := core.RequestSet{{1, 2, 3}, {9, 9}}
	var txt, bin bytes.Buffer
	Write(&txt, rs)
	WriteBinary(&bin, rs)
	f.Add(txt.Bytes())
	f.Add(bin.Bytes())
	f.Add([]byte("mcpaging-trace v1 cores 1 core 0 1 7"))
	f.Add([]byte("MCPT\x01\x01\x01\x00"))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := ReadAuto(bytes.NewReader(data))
		// Every binary request costs at least one byte, so what decodes
		// is bounded by the input, not by the lengths it claims.
		if err == nil && bytes.HasPrefix(data, []byte("MCPT")) && rs.TotalLen() > len(data) {
			t.Fatalf("%d bytes decoded to %d requests", len(data), rs.TotalLen())
		}
		if err == nil {
			// Whatever parsed must re-serialise cleanly.
			var buf bytes.Buffer
			if err := Write(&buf, rs); err != nil {
				t.Fatalf("re-serialise failed: %v", err)
			}
		}
	})
}
