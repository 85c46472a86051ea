package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"slices"
	"sync"

	"mcpaging/internal/core"
	"mcpaging/internal/metrics"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/workload"
)

// report prints one output-check failure to standard error.
func report(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: wrong result: "+format+"\n", args...)
}

// reference computes the expected answer of one cell with the
// map-based reference engine, which shares no serve loop with the
// engine mcservd runs.
func reference(rs core.RequestSet, spec string, p core.Params, seed int64) (server.Result, string, error) {
	st, err := strategyspec.Build(spec, rs, p.K, seed)
	if err != nil {
		return server.Result{}, "", err
	}
	res, err := sim.RunReference(core.Instance{R: rs, P: p}, st, nil)
	if err != nil {
		return server.Result{}, "", err
	}
	return wireResult(st.Name(), rs.TotalLen(), res), server.JobKey(rs, spec, p, seed), nil
}

// wireResult is the answer mcservd gives for a run: the fields of
// server.Result as the service derives them from a sim.Result.
func wireResult(name string, requests int, res sim.Result) server.Result {
	rate := 0.0
	if requests > 0 {
		rate = float64(res.TotalFaults()) / float64(requests)
	}
	return server.Result{
		Strategy:           name,
		Faults:             res.Faults,
		Hits:               res.Hits,
		Finish:             res.Finish,
		Makespan:           res.Makespan,
		TotalFaults:        res.TotalFaults(),
		TotalHits:          res.TotalHits(),
		FaultRate:          rate,
		Jain:               metrics.JainIndex(res.Faults),
		VoluntaryEvictions: res.VoluntaryEvictions,
		CapacityEvictions:  res.CapacityEvictions,
	}
}

// parallel runs task(i) for i in [0, n) on one goroutine per CPU.
func parallel(n int, task func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				task(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// checkAgainstReference recomputes every computed job answer with the
// reference engine and counts the answers whose key or result differ.
func checkAgainstReference(sz sizes, answers []answered) (int, error) {
	bad := make([]bool, len(answers))
	errs := make([]error, len(answers))
	parallel(len(answers), func(i int) {
		a := &answers[i]
		rs, err := workload.Generate(a.in.spec)
		if err != nil {
			errs[i] = err
			return
		}
		want, key, err := reference(rs, a.in.strategy, sz.params(), 0)
		if err != nil {
			errs[i] = err
			return
		}
		if a.resp.Cached {
			report("job %d: answered from the cache, want a computed result", a.id)
			bad[i] = true
		}
		if err := sameAnswer(a.resp, server.JobResponse{Key: key, Result: want}); err != nil {
			report("job %d: %v", a.id, err)
			bad[i] = true
		}
	})
	wrong := 0
	for i := range answers {
		if errs[i] != nil {
			return 0, fmt.Errorf("reference for job %d: %w", answers[i].id, errs[i])
		}
		if bad[i] {
			wrong++
		}
	}
	return wrong, nil
}

// sameAnswer compares the key and result of an answer with the
// expected ones.
func sameAnswer(got, want server.JobResponse) error {
	if got.Key != want.Key {
		return fmt.Errorf("key %.12s, want %.12s", got.Key, want.Key)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		return fmt.Errorf("result %+v, want %+v", got.Result, want.Result)
	}
	return nil
}

// checkSweep recomputes every line of one sweep answer with the
// reference engine.
func checkSweep(rs core.RequestSet, req server.SweepRequest, lines []server.SweepLine) (int, error) {
	type cell struct {
		k, tau int
		spec   string
	}
	var cells []cell
	for _, k := range req.Ks {
		for _, tau := range req.Taus {
			for _, spec := range req.Strategies {
				cells = append(cells, cell{k, tau, spec})
			}
		}
	}
	if len(lines) != len(cells) {
		report("sweep: %d lines, want %d", len(lines), len(cells))
		return len(cells), nil
	}
	bad := make([]bool, len(cells))
	errs := make([]error, len(cells))
	// The grid's longest cells come last (the FITF-based specs); start
	// them first so they overlap with the rest.
	parallel(len(cells), func(j int) {
		i := len(cells) - 1 - j
		c, l := cells[i], lines[i]
		if l.K != c.k || l.Tau != c.tau || l.Spec != c.spec || l.Error != "" || l.Result == nil || l.Cached {
			report("sweep line %d: %+v, want a computed result for %s K=%d τ=%d", i, l, c.spec, c.k, c.tau)
			bad[i] = true
			return
		}
		want, key, err := reference(rs, c.spec, core.Params{K: c.k, Tau: c.tau}, req.Seed)
		if err != nil {
			errs[i] = err
			return
		}
		if err := sameAnswer(server.JobResponse{Key: l.Key, Result: *l.Result}, server.JobResponse{Key: key, Result: want}); err != nil {
			report("sweep line %d (%s K=%d): %v", i, c.spec, c.k, err)
			bad[i] = true
		}
	})
	wrong := 0
	for i := range cells {
		if errs[i] != nil {
			return 0, fmt.Errorf("reference for %s K=%d: %w", cells[i].spec, cells[i].k, errs[i])
		}
		if bad[i] {
			wrong++
		}
	}
	return wrong, nil
}

// digest hashes (key, per-core faults, makespan) of each result in
// order.
type digest struct{ h []byte }

func (d *digest) add(key string, r server.Result) {
	d.h = append(d.h, key...)
	for _, f := range r.Faults {
		d.h = binary.AppendVarint(d.h, f)
	}
	d.h = binary.AppendVarint(d.h, r.Makespan)
}

func (d *digest) String() string {
	sum := sha256.Sum256(d.h)
	return hex.EncodeToString(sum[:8])
}

// digestAnswers digests job answers in op-ID order.
func digestAnswers(answers []answered) string {
	sorted := slices.Clone(answers)
	slices.SortStableFunc(sorted, func(a, b answered) int { return a.id - b.id })
	var d digest
	for _, a := range sorted {
		d.add(a.resp.Key, a.resp.Result)
	}
	return d.String()
}

// digestSweep digests the lines of one sweep in grid order.
func digestSweep(lines []server.SweepLine) string {
	var d digest
	for _, l := range lines {
		if l.Result != nil {
			d.add(l.Key, *l.Result)
		}
	}
	return d.String()
}
