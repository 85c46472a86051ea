package main

import (
	"context"
	"encoding/json"
	"fmt"

	"mcpaging/internal/cache"
	"mcpaging/internal/core"
	"mcpaging/internal/server"
	"mcpaging/internal/sim"
	"mcpaging/internal/strategyspec"
	"mcpaging/internal/telemetry"
	"mcpaging/internal/workload"
)

// Job IDs of the replay spans, apart from the IDs of timed operations.
const (
	replayJobID   = -1000 // replayed job i has ID replayJobID - i
	replaySweepID = -2000
)

// replayJobs replays jobs through the public functions mcservd calls,
// in the order handleJob and execute call them, one span per call:
// TraceInput.Resolve → JobKey → strategyspec.Build → NewRunner/Bind →
// RunContext → Collector.Finish → json.Marshal. The job's instance is
// also generated once more from its spec (what Resolve does for a
// workload input) and its run repeated with a nil observer, which
// separates the telemetry Collector's cost from the engine's.
func replayJobs(tr *tracer, sz sizes, jobs []jobInput) error {
	var rn *sim.Runner
	params := sz.params()
	for i, in := range jobs {
		id := replayJobID - i
		rs, err := workload.Generate(in.spec)
		if err != nil {
			return err
		}
		bin, err := encodeBinary(rs)
		if err != nil {
			return err
		}
		root := tr.begin("replay.job", in.strategy, 0, id)
		tr.record("workload.generate", "", root, id, func() { rs, err = workload.Generate(in.spec) })
		if err != nil {
			return err
		}
		tr.record("trace.resolve", "", root, id, func() {
			rs, err = server.TraceInput{BinaryB64: bin}.Resolve(1 << 30)
		})
		if err != nil {
			return err
		}
		var key string
		tr.record("server.jobkey", "", root, id, func() { key = server.JobKey(rs, in.strategy, params, 0) })
		var st sim.Strategy
		tr.record("strategyspec.build", in.strategy, root, id, func() { st, err = strategyspec.Build(in.strategy, rs, params.K, 0) })
		if err != nil {
			return err
		}
		tr.record("sim.bind", "", root, id, func() {
			if rn == nil {
				rn, err = sim.NewRunner(rs)
			} else {
				err = rn.Bind(rs)
			}
		})
		if err != nil {
			return err
		}
		ctx := context.Background()
		var bare, res sim.Result
		tr.record("sim.run", in.strategy, root, id, func() { bare, err = rn.RunContext(ctx, params, st, nil) })
		if err != nil {
			return err
		}
		col := telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: params})
		tr.record("sim.run_telemetry", in.strategy, root, id, func() { res, err = rn.RunContext(ctx, params, st, col.Observe) })
		if err != nil {
			return err
		}
		if bare.Makespan != res.Makespan || bare.TotalFaults() != res.TotalFaults() {
			return fmt.Errorf("replay job %d: the run with telemetry differs from the run without", i)
		}
		tr.record("telemetry.finish", "", root, id, func() { col.Finish(res) })
		tr.record("server.marshal", "", root, id, func() {
			_, err = json.Marshal(server.JobResponse{Key: key, Result: wireResult(st.Name(), rs.TotalLen(), res)})
		})
		if err != nil {
			return err
		}
		rn.Release()
		tr.end(root)
	}
	return replayTelemetry(tr, sz, jobs[0])
}

// replayTelemetry times Collector.Observe alone over the event stream
// of one recorded run, so its cost per event is measured without the
// engine around it.
func replayTelemetry(tr *tracer, sz sizes, in jobInput) error {
	rs, err := workload.Generate(in.spec)
	if err != nil {
		return err
	}
	st, err := strategyspec.Build(in.strategy, rs, sz.K, 0)
	if err != nil {
		return err
	}
	var events []sim.Event
	if _, err := sim.Run(core.Instance{R: rs, P: sz.params()}, st, func(e sim.Event) { events = append(events, e) }); err != nil {
		return err
	}
	for r := 0; r < sz.DriveRepeats; r++ {
		col := telemetry.New(telemetry.Config{Cores: rs.NumCores(), Params: sz.params()})
		tr.record("telemetry.observe", fmt.Sprint(len(events)), 0, replayJobID, func() {
			for _, e := range events {
				col.Observe(e)
			}
		})
	}
	return nil
}

// runK is the K at which the sweep replay runs each spec and drives
// each cache policy: the largest of the sweep's K values.
func (sz sizes) runK() int { return sz.SweepKs[len(sz.SweepKs)-1] }

// replaySweep times the sweep's layers on its instance: every
// strategyspec.Build of the grid, one engine run per portfolio spec at
// runK with a nil observer, and each online cache policy driven
// directly, without the engine.
func replaySweep(tr *tracer, sz sizes, spec workload.Spec) error {
	rs, err := workload.Generate(spec)
	if err != nil {
		return err
	}
	rn, err := sim.NewRunner(rs)
	if err != nil {
		return err
	}
	id := replaySweepID
	root := tr.begin("replay.sweep", "", 0, id)
	for _, k := range sz.SweepKs {
		for _, s := range strategyspec.Portfolio() {
			var st sim.Strategy
			tr.record("strategyspec.build", specAt(s, k), root, id, func() { st, err = strategyspec.Build(s, rs, k, 0) })
			if err != nil {
				return err
			}
			if k != sz.runK() {
				continue
			}
			tr.record("sim.run", specAt(s, k), root, id, func() { _, err = rn.Run(core.Params{K: k, Tau: sz.Tau}, st, nil) })
			if err != nil {
				return err
			}
		}
	}
	tr.end(root)
	order := interleave(rs)
	for _, name := range cachePolicies {
		mk, err := cache.NewFactory(name, 0)
		if err != nil {
			return err
		}
		for r := 0; r < sz.DriveRepeats; r++ {
			pol := mk()
			tr.record("cache.drive", name, 0, id, func() { driveCache(pol, order, sz.runK()) })
		}
	}
	return nil
}

// specAt labels a build or run span with its spec and K.
func specAt(spec string, k int) string { return fmt.Sprintf("%s K=%d", spec, k) }

// access is one request of the interleaved sweep trace.
type access struct {
	page core.PageID
	at   cache.Access
}

// interleave merges the cores' sequences round robin into one access
// stream for a single replacement domain.
func interleave(rs core.RequestSet) []access {
	out := make([]access, 0, rs.TotalLen())
	for i := 0; i < rs.MaxLen(); i++ {
		for c, seq := range rs {
			if i < len(seq) {
				out = append(out, access{seq[i], cache.Access{Core: c, Time: int64(len(out)), Index: i}})
			}
		}
	}
	return out
}

// driveCache serves the access stream with pol alone as a k-page cache
// through the cache.Policy methods the strategies call.
func driveCache(pol cache.Policy, order []access, k int) {
	pol.Resize(k)
	in, evictsFor := pol.(cache.IncomingEvictor)
	for _, a := range order {
		if pol.Contains(a.page) {
			pol.Touch(a.page, a.at)
			continue
		}
		if pol.Len() >= k {
			if evictsFor {
				in.EvictFor(a.page, nil)
			} else {
				pol.Evict(nil)
			}
		}
		pol.Insert(a.page, a.at)
	}
}
