package server

import (
	"bytes"
	"context"
	"encoding/base64"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
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

// BenchmarkServedRun is the engine step of a served cache-miss job, as
// execute runs it: a fresh S(LRU) from strategyspec.Build per job, one
// warm Runner bound to the 4×64K Zipf instance, K 256, τ 8. The nil
// case runs without an observer; the collector case attaches a
// telemetry Collector the way every served job does.
func BenchmarkServedRun(b *testing.B) {
	rs := benchInstance(b)
	p := core.Params{K: 256, Tau: 8}
	rn, err := sim.NewRunner(rs)
	if err != nil {
		b.Fatal(err)
	}
	for _, collect := range []bool{false, true} {
		name := "nil"
		if collect {
			name = "collector"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := strategyspec.Build("S(LRU)", rs, p.K, 0)
				if err != nil {
					b.Fatal(err)
				}
				var col *telemetry.Collector
				var obs sim.Observer
				if collect {
					col = telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: p})
					obs = col.Observe
				}
				res, err := rn.RunContext(context.Background(), p, st, obs)
				if err != nil {
					b.Fatal(err)
				}
				if col != nil {
					col.Finish(res)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(rs.TotalLen()), "ns/req")
		})
	}
}
