// Package capacity defines deterministic time-varying cache-capacity
// schedules — the K(t) of Peserico's "Paging with dynamic memory
// capacity" generalization — behind a spec mini-language that mirrors
// strategyspec and workload.ParseFamily:
//
//	fixed                                  constant K (the classic model)
//	step(to=8,at=1024)                     one change at time `at`
//	step(to=50%,at=1024)                   percentages resolve against base K
//	ramp(to=8,end=4096)                    linear drift, quantized plateaus
//	periodic(lo=8,period=2048,duty=0.5)    square wave: K .. lo .. K ..
//	trace(path=sched.txt)                  breakpoints from a file ("t k" lines)
//
// A Schedule is bound to a base capacity at parse time (the run's
// Params.K) and always starts there: At(0) == Base(). Capacity values
// are either absolute page counts or percentages of the base, so one
// spec string composes with every K of a sweep grid. All queries are
// pure integer arithmetic on pre-computed breakpoints. For the portable
// families the same (spec, base) pair yields the identical K(t)
// everywhere; trace additionally depends on the contents of a file
// local to the parsing process, which is why network-facing services
// parse with ParsePortableSchedule (rejecting trace) and why mcservd
// hashes the resolved schedule (Canonical), never the spec string, into
// its content-addressed job key.
package capacity

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"mcpaging/internal/specargs"
)

// NoChange is the NextChange result meaning "capacity never changes
// again" — larger than any reachable simulation time.
const NoChange int64 = math.MaxInt64

// maxPlateaus bounds the breakpoint list a single spec may expand to
// (ramp quantization, trace files), keeping parse cost and memory
// bounded under fuzzing.
const maxPlateaus = 4096

// maxK bounds capacity values so interpolation arithmetic stays well
// inside int64.
const maxK = 1 << 31

// breakpoint is one (time, capacity) change point. The schedule's value
// is k from t (inclusive) until the next breakpoint.
type breakpoint struct {
	t int64
	k int
}

// Schedule is a bound capacity schedule K(t). The zero value is not
// usable; build one with ParseSchedule. A nil *Schedule is treated by
// the simulator as the classic fixed-K model.
type Schedule struct {
	spec string
	base int
	min  int

	// bps is the breakpoint list for the aperiodic families, sorted by
	// strictly increasing time, first entry {0, base}, consecutive
	// entries with distinct k.
	bps []breakpoint

	// periodic square wave: K(t) = hi while ((t+phase) mod period) <
	// onLen, else lo. period == 0 means "not periodic".
	period int64
	onLen  int64
	phase  int64
	hi, lo int
}

// Base returns the capacity the schedule was bound to; At(0) == Base().
func (s *Schedule) Base() int { return s.base }

// Min returns the minimum capacity the schedule ever reaches.
func (s *Schedule) Min() int { return s.min }

// String returns the spec the schedule was parsed from.
func (s *Schedule) String() string { return s.spec }

// Canonical returns a canonical binary encoding of the resolved
// schedule — the breakpoint list or periodic-wave parameters that
// define K(t), not the spec string. Two specs resolving to the same
// K(t) encode identically, and a trace schedule's encoding follows the
// file contents it was resolved from, so a content-addressed cache key
// built over Canonical (mcservd's JobKey) always corresponds to the
// K(t) actually simulated even when spec and file diverge.
func (s *Schedule) Canonical() []byte {
	var buf [binary.MaxVarintLen64]byte
	out := make([]byte, 0, 8+16*len(s.bps))
	vi := func(v int64) { out = append(out, buf[:binary.PutVarint(buf[:], v)]...) }
	vi(int64(s.base))
	if s.period > 0 {
		out = append(out, 'p')
		vi(s.period)
		vi(s.onLen)
		vi(s.phase)
		vi(int64(s.hi))
		vi(int64(s.lo))
		return out
	}
	out = append(out, 'b')
	vi(int64(len(s.bps)))
	for _, bp := range s.bps {
		vi(bp.t)
		vi(int64(bp.k))
	}
	return out
}

// Constant reports whether the schedule never changes capacity — a
// constant schedule is byte-identical, in events and results, to the
// fixed-K model.
func (s *Schedule) Constant() bool {
	if s.period > 0 {
		return s.hi == s.lo
	}
	return len(s.bps) == 1
}

// At returns K(t), the capacity in force at time t. t must be >= 0.
func (s *Schedule) At(t int64) int {
	if s.period > 0 {
		if (t+s.phase)%s.period < s.onLen {
			return s.hi
		}
		return s.lo
	}
	// Binary search the latest breakpoint at or before t. The list is
	// short (≤ maxPlateaus) and the first entry is at t=0.
	lo, hi := 0, len(s.bps)-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if s.bps[mid].t <= t {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return s.bps[lo].k
}

// NextChange returns the smallest t' > t at which the capacity differs
// from At(t), or NoChange if capacity never changes again. The engine
// uses it to skip schedule checks entirely between breakpoints.
func (s *Schedule) NextChange(t int64) int64 {
	if s.period > 0 {
		if s.hi == s.lo {
			return NoChange
		}
		r := (t + s.phase) % s.period
		if r < s.onLen {
			return t + (s.onLen - r)
		}
		return t + (s.period - r)
	}
	for i := range s.bps {
		if s.bps[i].t > t {
			return s.bps[i].t
		}
	}
	return NoChange
}

// scheduleDef is one grammar-registry row.
type scheduleDef struct {
	name string
	desc string
	keys []string
	// local marks families whose K(t) depends on resources local to the
	// parsing process (files). ParsePortableSchedule rejects them, so a
	// spec arriving over the network can never name a host path.
	local bool
	build func(p specargs.Params, base int) (*Schedule, error)
}

// capOr parses a capacity value: an absolute page count ("12") or a
// percentage of the base capacity ("75%", integer percent, rounded to
// nearest page). def < 0 means the key is required.
func capOr(p specargs.Params, key string, base int, def int) (int, error) {
	raw, ok := p[key]
	if !ok {
		if def < 0 {
			return 0, fmt.Errorf("parameter %s is required", key)
		}
		return def, nil
	}
	if pctStr, isPct := strings.CutSuffix(raw, "%"); isPct {
		pct, err := strconv.ParseInt(pctStr, 10, 64)
		if err != nil || pct < 0 || pct > 100000 {
			return 0, fmt.Errorf("parameter %s=%q is not a percentage", key, raw)
		}
		v := (int64(base)*pct + 50) / 100
		if v > maxK {
			return 0, fmt.Errorf("parameter %s=%q exceeds the %d-page bound", key, raw, maxK)
		}
		return int(v), nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %s=%q is not a capacity (want pages or N%%)", key, raw)
	}
	if v > maxK {
		return 0, fmt.Errorf("parameter %s=%d exceeds the %d-page bound", key, v, maxK)
	}
	return int(v), nil
}

// schedules is the grammar registry, in listing order.
var schedules = []scheduleDef{
	{
		name: "fixed", desc: "constant capacity (the classic fixed-K model)",
		keys: []string{"k"},
		build: func(p specargs.Params, base int) (*Schedule, error) {
			k, err := capOr(p, "k", base, base)
			if err != nil {
				return nil, err
			}
			if k != base {
				return nil, fmt.Errorf("fixed k=%d disagrees with base K=%d (schedules start at the run's K)", k, base)
			}
			return fromBreakpoints(base, []breakpoint{{0, base}})
		},
	},
	{
		name: "step", desc: "one change: base K until `at`, then `to`",
		keys: []string{"to", "at"},
		build: func(p specargs.Params, base int) (*Schedule, error) {
			to, err := capOr(p, "to", base, -1)
			if err != nil {
				return nil, err
			}
			if _, ok := p["at"]; !ok {
				return nil, fmt.Errorf("parameter at is required")
			}
			at, err := p.Int64("at", -1)
			if err != nil {
				return nil, err
			}
			if at < 1 {
				return nil, fmt.Errorf("step needs at>=1, got %d (K(0) is always the base)", at)
			}
			bps := []breakpoint{{0, base}}
			if to != base {
				bps = append(bps, breakpoint{at, to})
			}
			return fromBreakpoints(base, bps)
		},
	},
	{
		name: "ramp", desc: "linear drift from base K to `to` over [start,end], quantized every `every` steps",
		keys: []string{"to", "start", "end", "every"},
		build: func(p specargs.Params, base int) (*Schedule, error) {
			to, err := capOr(p, "to", base, -1)
			if err != nil {
				return nil, err
			}
			start, err := p.Int64("start", 0)
			if err != nil {
				return nil, err
			}
			end, err := p.Int64("end", -1)
			if err != nil {
				return nil, err
			}
			if start < 0 || end <= start || end > 1<<62 {
				return nil, fmt.Errorf("ramp needs 0 <= start < end <= 2^62, got start=%d end=%d", start, end)
			}
			span := end - start
			every, err := p.Int64("every", span/8)
			if err != nil {
				return nil, err
			}
			if every < 1 {
				every = 1
			}
			m := span / every // number of interior plateau boundaries
			if span%every != 0 {
				m++
			}
			if m > maxPlateaus {
				return nil, fmt.Errorf("ramp expands to %d plateaus (max %d); use a larger every", m, maxPlateaus)
			}
			bps := []breakpoint{{0, base}}
			diff := float64(to - base)
			for i := int64(1); i <= m; i++ {
				t := start + i*every
				k := to
				if t < end {
					// Round-to-nearest interpolation at the plateau start.
					k = base + int(math.Round(diff*float64(t-start)/float64(span)))
				} else {
					t = end
				}
				if k != bps[len(bps)-1].k {
					bps = append(bps, breakpoint{t, k})
				}
			}
			return fromBreakpoints(base, bps)
		},
	},
	{
		name: "periodic", desc: "square wave between base K and `lo`: K for duty×period steps, then lo",
		keys: []string{"lo", "period", "duty", "phase"},
		build: func(p specargs.Params, base int) (*Schedule, error) {
			lo, err := capOr(p, "lo", base, -1)
			if err != nil {
				return nil, err
			}
			period, err := p.Int64("period", -1)
			if err != nil {
				return nil, err
			}
			if period < 2 || period > 1<<62 {
				return nil, fmt.Errorf("periodic needs 2 <= period <= 2^62, got %d", period)
			}
			duty, err := p.Float("duty", 0.5)
			if err != nil {
				return nil, err
			}
			if duty <= 0 || duty >= 1 || duty != duty {
				return nil, fmt.Errorf("periodic needs duty in (0,1), got %v", duty)
			}
			onLen := int64(duty*float64(period) + 0.5)
			if onLen < 1 {
				onLen = 1
			}
			if onLen > period-1 {
				onLen = period - 1
			}
			phase, err := p.Int64("phase", 0)
			if err != nil {
				return nil, err
			}
			if phase < 0 || phase >= period {
				return nil, fmt.Errorf("periodic needs phase in [0,period), got %d", phase)
			}
			if phase >= onLen && lo != base {
				return nil, fmt.Errorf("periodic phase=%d starts in the low half (K(0) is always the base; use phase < %d)", phase, onLen)
			}
			s := &Schedule{
				base: base, min: base,
				period: period, onLen: onLen, phase: phase,
				hi: base, lo: lo,
			}
			if lo < s.min {
				s.min = lo
			}
			return s, validCaps(s.base, s.min)
		},
	},
	{
		name: "trace", desc: "breakpoints from a file: one `t k` pair per line, t ascending from 0",
		keys: []string{"path"}, local: true,
		build: func(p specargs.Params, base int) (*Schedule, error) {
			path, ok := p["path"]
			if !ok || path == "" {
				return nil, fmt.Errorf("trace needs path=...")
			}
			f, err := os.Open(path)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			bps, err := readTrace(f, base)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			return fromBreakpoints(base, bps)
		},
	},
}

// fromBreakpoints validates and packs an aperiodic schedule. bps must be
// sorted by strictly increasing time with bps[0].t == 0.
func fromBreakpoints(base int, bps []breakpoint) (*Schedule, error) {
	if bps[0].t != 0 || bps[0].k != base {
		return nil, fmt.Errorf("schedule must start at K(0)=%d", base)
	}
	s := &Schedule{base: base, min: base, bps: bps}
	for i, bp := range bps {
		if i > 0 {
			if bp.t <= bps[i-1].t {
				return nil, fmt.Errorf("breakpoint times must increase (t=%d after t=%d)", bp.t, bps[i-1].t)
			}
			if bp.k == bps[i-1].k {
				return nil, fmt.Errorf("redundant breakpoint at t=%d (capacity unchanged)", bp.t)
			}
		}
		if bp.k < s.min {
			s.min = bp.k
		}
	}
	return s, validCaps(s.base, s.min)
}

// validCaps checks every capacity the schedule reaches is usable.
func validCaps(base, min int) error {
	if base < 1 {
		return fmt.Errorf("base capacity K=%d, want >= 1", base)
	}
	if min < 1 {
		return fmt.Errorf("schedule reaches capacity %d, want >= 1", min)
	}
	if base > maxK {
		return fmt.Errorf("base capacity K=%d exceeds the %d-page bound", base, maxK)
	}
	return nil
}

// readTrace parses "t k" lines. Blank lines and #-comments are skipped;
// k values may be absolute or percentages of base. The first breakpoint
// must be "0 <base>" (or "0 100%"). Errors carry the line number but
// never the line's contents: parse errors propagate into HTTP bodies
// and logs, which must not become a file-disclosure channel.
func readTrace(f *os.File, base int) ([]breakpoint, error) {
	var bps []breakpoint
	sc := bufio.NewScanner(f)
	line := 0
	lastT := int64(-1)
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("line %d: want two fields \"t k\"", line)
		}
		t, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil || t < 0 {
			return nil, fmt.Errorf("line %d: bad time (want integer >= 0)", line)
		}
		// Times must strictly increase on every line, including lines the
		// same-k dedup below would otherwise skip: a dense export with an
		// out-of-order or duplicated timestamp is malformed even when the
		// capacity happens to be unchanged.
		if t <= lastT {
			return nil, fmt.Errorf("line %d: time out of order", line)
		}
		lastT = t
		k, err := capOr(specargs.Params{"k": fields[1]}, "k", base, -1)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad capacity (want pages or N%%, >= 1, <= %d)", line, maxK)
		}
		if len(bps) >= maxPlateaus {
			return nil, fmt.Errorf("more than %d breakpoints", maxPlateaus)
		}
		// Tolerate consecutive lines with the same k (a dense export);
		// fromBreakpoints requires deduped changes.
		if len(bps) > 0 && bps[len(bps)-1].k == k {
			continue
		}
		bps = append(bps, breakpoint{t, k})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(bps) == 0 {
		return nil, fmt.Errorf("no breakpoints")
	}
	return bps, nil
}

// scheduleByName resolves a registry row.
func scheduleByName(name string) *scheduleDef {
	for i := range schedules {
		if schedules[i].name == name {
			return &schedules[i]
		}
	}
	return nil
}

// Names lists the registered schedule families in listing order.
func Names() []string {
	out := make([]string, len(schedules))
	for i := range schedules {
		out[i] = schedules[i].name
	}
	return out
}

// Info describes one schedule family for listings.
type Info struct {
	Name   string   `json:"name"`
	Desc   string   `json:"desc"`
	Params []string `json:"params"`
}

// List enumerates the registry in listing order.
func List() []Info {
	out := make([]Info, len(schedules))
	for i := range schedules {
		out[i] = Info{
			Name:   schedules[i].name,
			Desc:   schedules[i].desc,
			Params: append([]string(nil), schedules[i].keys...),
		}
	}
	return out
}

// ParseSchedule parses a capacity spec, name(key=val,...), and binds it
// to the base capacity (the run's Params.K). The parameter list may be
// empty (defaults apply); unknown families and unknown or malformed
// parameters are errors. Every schedule satisfies At(0) == base and
// Min() >= 1.
func ParseSchedule(spec string, base int) (*Schedule, error) {
	return parse(spec, base, false)
}

// ParsePortableSchedule is ParseSchedule restricted to the portable
// families — those whose K(t) is fully determined by the spec string
// and base alone. Families that read files local to the parsing
// process (trace) are rejected. Anything parsing a spec supplied by a
// remote client — mcservd's handlers, the mcfleet dispatcher — must
// use this entry point: a remote spec must never name a path on the
// host (file-existence probing, content disclosure through parse
// errors), and a path-dependent schedule would break the fleet's
// same-key-same-result routing contract anyway.
func ParsePortableSchedule(spec string, base int) (*Schedule, error) {
	return parse(spec, base, true)
}

// portableNames lists the families ParsePortableSchedule accepts.
func portableNames() []string {
	var out []string
	for i := range schedules {
		if !schedules[i].local {
			out = append(out, schedules[i].name)
		}
	}
	return out
}

func parse(spec string, base int, portableOnly bool) (*Schedule, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("capacity: empty spec")
	}
	name, arglist, ok := specargs.Split(spec)
	if !ok {
		return nil, fmt.Errorf("capacity: bad spec %q (want name(key=val,...))", spec)
	}
	def := scheduleByName(name)
	if def == nil {
		return nil, fmt.Errorf("capacity: unknown schedule %q (valid: %s)",
			name, strings.Join(Names(), ", "))
	}
	if portableOnly && def.local {
		return nil, fmt.Errorf("capacity: %s schedules read files local to the server and are not accepted here (portable families: %s)",
			name, strings.Join(portableNames(), ", "))
	}
	par, err := specargs.Parse("capacity: "+name, arglist, def.keys)
	if err != nil {
		return nil, err
	}
	if err := validCaps(base, base); err != nil {
		return nil, fmt.Errorf("capacity: %v", err)
	}
	s, err := def.build(par, base)
	if err != nil {
		return nil, fmt.Errorf("capacity: %s: %v", name, err)
	}
	s.spec = spec
	return s, nil
}
