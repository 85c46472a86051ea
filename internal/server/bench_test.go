package server

import (
	"bytes"
	"encoding/base64"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/trace"
	"mcpaging/internal/workload"
)

// benchInstance is the perfbench job shape: 4 cores × 64K Zipf
// requests over 1024 pages per core.
func benchInstance(b *testing.B) core.RequestSet {
	b.Helper()
	rs, err := workload.Generate(workload.Spec{Kind: workload.Zipf, Cores: 4, Length: 64 << 10, Pages: 1024, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

var benchKey string

func BenchmarkJobKey(b *testing.B) {
	rs := benchInstance(b)
	p := core.Params{K: 1024, Tau: 4}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKey = JobKey(rs, "S(LRU)", p, 0)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rs.TotalLen()), "ns/req")
}

var benchSet core.RequestSet

func BenchmarkResolveBinary(b *testing.B) {
	rs := benchInstance(b)
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, rs); err != nil {
		b.Fatal(err)
	}
	in := TraceInput{BinaryB64: base64.StdEncoding.EncodeToString(bin.Bytes())}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		if benchSet, err = in.Resolve(8 << 20); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rs.TotalLen()), "ns/req")
}
