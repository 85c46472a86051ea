package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"

	"mcpaging/internal/core"
)

// Binary format: a compact varint encoding for large traces.
//
//	magic "MCPT" + version byte 1
//	uvarint p
//	per core: uvarint length, then delta-zigzag varint page IDs
//
// Delta encoding exploits the locality of generated workloads; loop and
// markov traces compress to ~1 byte per request.

var binaryMagic = []byte{'M', 'C', 'P', 'T', 1}

// WriteBinary serialises a request set in the binary format.
func WriteBinary(w io.Writer, r core.RequestSet) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(binaryMagic); err != nil {
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	putVarint := func(v int64) error {
		n := binary.PutVarint(buf[:], v)
		_, err := bw.Write(buf[:n])
		return err
	}
	if err := putUvarint(uint64(r.NumCores())); err != nil {
		return err
	}
	for _, seq := range r {
		if err := putUvarint(uint64(len(seq))); err != nil {
			return err
		}
		prev := int64(0)
		for _, pg := range seq {
			if err := putVarint(int64(pg) - prev); err != nil {
				return err
			}
			prev = int64(pg)
		}
	}
	return bw.Flush()
}

// ReadBinary parses the binary format, materializing the full request
// set, and rejects a trace that claims more than maxRequests requests
// in total before allocating for it (math.MaxInt for a trusted local
// file). Callers that can process requests core by core should use
// Decoder instead, which never holds more than one caller-sized buffer
// of decoded pages.
func ReadBinary(r io.Reader, maxRequests int) (core.RequestSet, error) {
	d, err := NewDecoder(r, maxRequests)
	if err != nil {
		return nil, err
	}
	return d.ReadAll()
}

// What can be wrong with a varint or a claimed length. The decoder
// wraps them in messages naming the core, the request or length field,
// and the byte offset; errTruncated also matches io.ErrUnexpectedEOF.
var (
	errTruncated  = fmt.Errorf("truncated varint: %w", io.ErrUnexpectedEOF)
	errOverflow   = errors.New("varint overflows 64 bits")
	errPageRange  = errors.New("out of range [0, 2^31-1]")
	errOverBudget = errors.New("over the request budget")
)

// maxPage is the largest page ID the format carries.
const maxPage = 1<<31 - 1

// Decoder streams a binary trace without materializing it: the header
// is parsed on construction, then each core's sequence is consumed
// with NextCore followed by Read calls into a caller-owned buffer. The
// caller controls all allocation, so a billion-request trace can feed
// a consumer through a fixed-size buffer.
//
//	d, _ := trace.NewDecoder(f, math.MaxInt)
//	buf := make([]core.PageID, 64<<10)
//	for {
//		n, err := d.NextCore()      // io.EOF after the last core
//		...
//		for {
//			m, err := d.Read(buf)   // io.EOF at the end of the core
//			consume(buf[:m])
//			...
//		}
//	}
//
// Page IDs are decoded straight from the bufio.Reader's buffered
// window; only a varint that may straddle the window's end goes
// through the byte reader.
type Decoder struct {
	br *bufio.Reader
	p  int // core count from the header

	limit   int // request budget across all cores
	claimed int // requests claimed by the lengths read so far

	decoded int   // cores whose NextCore has been issued
	left    int   // requests remaining in the current core
	next    int   // index of the current core's next request
	prev    int64 // delta-decoding accumulator for the current core
	off     int64 // bytes consumed since the start of the trace
}

// NewDecoder parses the binary header (magic and core count) and
// positions the stream at the first core. maxRequests is the request
// budget: a header or core length that would take the trace past it
// is an error before anything is allocated for it. The reader is
// buffered internally; r is consumed exactly up to the end of the
// trace.
func NewDecoder(r io.Reader, maxRequests int) (*Decoder, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	head := make([]byte, len(binaryMagic))
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("trace: short binary header: %w", err)
	}
	if !bytes.Equal(head, binaryMagic) {
		return nil, fmt.Errorf("trace: bad binary magic")
	}
	d := &Decoder{br: br, limit: max(maxRequests, 0), off: int64(len(binaryMagic))}
	p, err := d.uvarint()
	if err != nil {
		return nil, fmt.Errorf("trace: core count at byte %d: %w", len(binaryMagic), err)
	}
	if p < 1 || p > 1<<20 {
		return nil, fmt.Errorf("trace: implausible core count %d", p)
	}
	if p > uint64(d.limit) {
		return nil, fmt.Errorf("trace: header claims %d cores, %w of %d", p, errOverBudget, d.limit)
	}
	d.p = int(p)
	return d, nil
}

// NumCores returns the trace's core count, known from the header.
func (d *Decoder) NumCores() int { return d.p }

// NextCore advances to the next core's sequence and returns its
// length. It returns io.EOF after the last core. The previous core's
// sequence must be fully consumed first (Read returned io.EOF).
func (d *Decoder) NextCore() (int, error) {
	if d.left != 0 {
		return 0, fmt.Errorf("trace: NextCore with %d requests unread in core %d", d.left, d.decoded-1)
	}
	if d.decoded == d.p {
		return 0, io.EOF
	}
	at := d.off
	n, err := d.uvarint()
	if err != nil {
		return 0, fmt.Errorf("trace: core %d length at byte %d: %w", d.decoded, at, err)
	}
	if n > 1<<28 {
		return 0, fmt.Errorf("trace: core %d length at byte %d: implausible sequence length %d", d.decoded, at, n)
	}
	if n > uint64(d.limit-d.claimed) {
		return 0, fmt.Errorf("trace: core %d length at byte %d: claims %d requests, %w of %d (%d claimed by earlier cores)",
			d.decoded, at, n, errOverBudget, d.limit, d.claimed)
	}
	d.decoded++
	d.claimed += int(n)
	d.left = int(n)
	d.next = 0
	d.prev = 0
	return int(n), nil
}

// Read decodes up to len(buf) pages of the current core's sequence
// into buf and returns the count. At the end of the core it returns
// 0, io.EOF; call NextCore to proceed.
func (d *Decoder) Read(buf []core.PageID) (int, error) {
	if d.left == 0 {
		return 0, io.EOF
	}
	if len(buf) > d.left {
		buf = buf[:d.left]
	}
	prev, i := d.prev, 0
	var err error
	var at int64 // byte offset of the varint that failed
	for i < len(buf) {
		// Decode from the buffered window while a varint of maximal
		// length is sure to fit in what is left of it.
		win, _ := d.br.Peek(d.br.Buffered())
		j := 0
		for ; i < len(buf) && len(win)-j >= binary.MaxVarintLen64; i++ {
			ux, m := uint64(win[j]), 1
			if ux >= 0x80 {
				if c := win[j+1]; c < 0x80 {
					ux, m = ux&0x7f|uint64(c)<<7, 2
				} else if ux, m = binary.Uvarint(win[j:]); m <= 0 {
					err, at = errOverflow, d.off+int64(j)
					break
				}
			}
			next := prev + (int64(ux>>1) ^ -int64(ux&1))
			if uint64(next) > maxPage {
				err, at = fmt.Errorf("page %d %w", next, errPageRange), d.off+int64(j)
				break
			}
			j += m
			prev = next
			buf[i] = core.PageID(prev)
		}
		d.br.Discard(j) // j ≤ Buffered(): cannot fail
		d.off += int64(j)
		if i == len(buf) || err != nil {
			break
		}
		// Fewer than MaxVarintLen64 bytes are buffered: take one varint
		// through the byte reader, which refills the window when empty.
		at = d.off
		var ux uint64
		if ux, err = d.uvarint(); err != nil {
			break
		}
		next := prev + (int64(ux>>1) ^ -int64(ux&1))
		if uint64(next) > maxPage {
			err = fmt.Errorf("page %d %w", next, errPageRange)
			break
		}
		prev = next
		buf[i] = core.PageID(prev)
		i++
	}
	d.prev = prev
	d.left -= i
	d.next += i
	if err != nil {
		return i, fmt.Errorf("trace: core %d request %d at byte %d: %w", d.decoded-1, d.next, at, err)
	}
	return i, nil
}

// uvarint reads one unsigned varint a byte at a time, counting the
// bytes it consumes.
func (d *Decoder) uvarint() (uint64, error) {
	var b [binary.MaxVarintLen64]byte
	for i := range b {
		c, err := d.br.ReadByte()
		if err == io.EOF {
			return 0, errTruncated
		}
		if err != nil {
			return 0, err
		}
		d.off++
		b[i] = c
		if c < 0x80 {
			break
		}
	}
	// Ten continuation bytes, or a tenth byte above 1, overflow.
	x, n := binary.Uvarint(b[:])
	if n <= 0 {
		return 0, errOverflow
	}
	return x, nil
}

// ReadAll drains the remaining cores into a request set — the
// materializing path ReadBinary is built on. Memory follows the bytes
// that arrive, not the lengths the header claims: a sequence starts at
// min(length, 64K) pages and doubles up to its length as pages decode.
func (d *Decoder) ReadAll() (core.RequestSet, error) {
	rs := make(core.RequestSet, 0, min(d.p-d.decoded, 1024))
	for {
		n, err := d.NextCore()
		if err == io.EOF {
			return rs, nil
		}
		if err != nil {
			return nil, err
		}
		seq := make(core.Sequence, min(n, 64<<10))
		for off := 0; off < n; {
			if off == len(seq) {
				grown := make(core.Sequence, min(n, 2*len(seq)))
				copy(grown, seq)
				seq = grown
			}
			m, err := d.Read(seq[off:])
			if err != nil {
				return nil, err
			}
			off += m
		}
		rs = append(rs, seq)
	}
}

// ReadAuto detects the format (text or binary) from the leading bytes
// and parses accordingly.
func ReadAuto(r io.Reader) (core.RequestSet, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("trace: cannot peek header: %w", err)
	}
	if string(head) == "MCPT" {
		return ReadBinary(br, math.MaxInt)
	}
	return Read(br)
}
