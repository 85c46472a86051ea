package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"
)

// rateFile is rates.json: the offered rate of each open-loop workload,
// a share of the saturated throughput that --calibrate measured, and
// the machine it was measured on.
type rateFile struct {
	Rates     map[string]float64 `json:"rates"`
	Saturated map[string]float64 `json:"saturated_jobs_per_s"`
	Machine   machineInfo        `json:"machine"`
}

func readRates(path string) (rateFile, error) {
	var rf rateFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, fmt.Errorf("reading rates: %w", err)
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// saturator is a job workload that can be driven at saturation.
type saturator interface {
	bench
	// saturate runs a closed loop of one caller per CPU for d and
	// returns the answered jobs per second.
	saturate(d time.Duration) (float64, error)
}

// offeredShare is the share of its saturated throughput each open-loop
// workload is offered. A miss job is split between a handler (generate,
// key) and a worker (simulate), so at half of the two-caller saturated
// throughput consecutive jobs still overlap little. A hit job is one
// handler's work from body to key; at half its jobs queue behind each
// other, and on a 2-vCPU host the latency quartile spread over five
// seeds was 36% (p50) and 62% (p95), against 10% and 12% at a quarter.
var offeredShare = map[string]float64{"job-zipf-miss": 0.5, "job-trace-hit": 0.25}

// calibrate measures each job workload's saturated throughput with a
// short closed loop and writes its offered share to path as the rate.
func calibrate(seed int64, d time.Duration, path string) error {
	rf := rateFile{Rates: map[string]float64{}, Saturated: map[string]float64{}}
	for _, name := range []string{"job-zipf-miss", "job-trace-hit"} {
		o := options{workload: name, seed: seed, window: d, rate: 1, size: fullSizes}
		b := newBench(o)
		if err := b.setup(); err != nil {
			b.close()
			return fmt.Errorf("%s set-up: %w", name, err)
		}
		jps, err := b.(saturator).saturate(d)
		b.close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		rf.Saturated[name] = jps
		rf.Rates[name] = math.Round(jps*offeredShare[name]*10) / 10
		fmt.Printf("%s: saturated %.2f jobs/s, offered rate %.1f jobs/s\n", name, jps, rf.Rates[name])
	}
	rf.Machine = thisMachine()
	b, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// saturation tallies a saturated closed loop.
func saturation(ops []op, start time.Time, input func(id int) jobInput) (float64, error) {
	ph, _, err := jobPhase(ops, start, input)
	if err != nil {
		return 0, err
	}
	if ph.failed > 0 {
		return 0, fmt.Errorf("%d of %d jobs failed at saturation", ph.failed, ph.attempted)
	}
	return ph.cellsPerS, nil
}

func (w *zipfMiss) saturate(d time.Duration) (float64, error) {
	start := time.Now()
	ops := closedLoop(w.sent, int(d.Seconds()*1000), runtime.NumCPU(), start.Add(d), w.poster(w.input, nil))
	return saturation(ops, start, w.input)
}

func (w *traceHit) saturate(d time.Duration) (float64, error) {
	start := time.Now()
	ops := closedLoop(0, int(d.Seconds()*1000), runtime.NumCPU(), start.Add(d), func(o *op) {
		o.status, o.body, o.err = post(w.cl, w.svc.url+"/v1/jobs", w.bodies[w.pick(o.id)], o.id, nil)
	})
	return saturation(ops, start, func(id int) jobInput { return w.inputs[w.pick(id)] })
}
