package trace_test

import (
	"bytes"
	"io"
	"math"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// BenchmarkDecoder streams the perfbench job shape — 4 cores × 64K
// Zipf requests over 1024 pages per core — through a fixed buffer, so
// it measures decoding alone.
func BenchmarkDecoder(b *testing.B) {
	rs, err := workload.Generate(workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 64 << 10, Pages: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, rs); err != nil {
		b.Fatal(err)
	}
	data := bin.Bytes()
	buf := make(core.Sequence, 64<<10)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := trace.NewDecoder(bytes.NewReader(data), math.MaxInt)
		if err != nil {
			b.Fatal(err)
		}
		for {
			if _, err := d.NextCore(); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
			for {
				if _, err := d.Read(buf); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rs.TotalLen()), "ns/req")
}
