package specargs_test

import (
	"math"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"mcpaging/internal/specargs"
)

func TestParseErrors(t *testing.T) {
	accepted := []string{"to", "at"}
	cases := []struct {
		arglist string
		want    string // error text; "" for success
	}{
		{"", ""},
		{"  ", ""},
		{"to=8, at=4 ", ""},
		{"to=", ""},
		{"to", `capacity: step: bad parameter "to" (want key=val)`},
		{"to=8,,at=4", `capacity: step: bad parameter "" (want key=val)`},
		{"=8", `capacity: step: bad parameter "=8" (want key=val)`},
		{"to=8,to=9", `capacity: step: duplicate parameter "to"`},
		{"x=1,to=8,y=2", `capacity: step does not accept x, y (valid: to, at)`},
	}
	for _, tc := range cases {
		_, err := specargs.Parse("capacity: step", tc.arglist, accepted)
		got := ""
		if err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("Parse(%q) error = %q, want %q", tc.arglist, got, tc.want)
		}
	}
}

func TestParamValues(t *testing.T) {
	p := specargs.Params{"n": "12", "big": "9223372036854775807", "f": "0.5", "bad": "x"}
	if v, err := p.Int("n", 3); v != 12 || err != nil {
		t.Errorf("Int(n) = %d, %v", v, err)
	}
	if v, err := p.Int("absent", 3); v != 3 || err != nil {
		t.Errorf("Int(absent) = %d, %v", v, err)
	}
	if v, err := p.Int64("big", 0); v != 1<<63-1 || err != nil {
		t.Errorf("Int64(big) = %d, %v", v, err)
	}
	if v, err := p.Float("f", 1); v != 0.5 || err != nil {
		t.Errorf("Float(f) = %g, %v", v, err)
	}
	if _, err := p.Int("bad", 0); err == nil || err.Error() != `parameter bad="x" is not an integer` {
		t.Errorf("Int(bad) error = %v", err)
	}
	if _, err := p.Float("bad", 0); err == nil || err.Error() != `parameter bad="x" is not a number` {
		t.Errorf("Float(bad) error = %v", err)
	}
}

// FuzzParse drives Split and Parse with arbitrary specs. Neither may
// panic; Split must cut exactly at the first "(" and the closing ")";
// errors must carry the caller's prefix; and a successful parse must
// hold only accepted keys and survive a round trip through its own
// canonical key=val rendering. The value helpers must agree with
// strconv on every parsed value.
func FuzzParse(f *testing.F) {
	for _, spec := range []string{
		"", "step", "step(", "step)", "step()", "step( )", "step(to=8,at=1024)",
		"step(to=8,,at=4)", "step(to=8,to=8)", "step(x=1,y=2)", "step(=4)",
		"zipf(cores=4,length=4096,s=1.3)", "periodic(lo=25%,period=64,duty=0.9)",
		"a(b=c=d)", "(to=1)", "a(to=99999999999999999999,s=1e999)", "日本語(to=8)", "\x00(\x00)",
	} {
		f.Add(spec)
	}
	accepted := []string{"to", "at", "cores", "length", "s", "lo", "period", "duty", "b"}
	const prefix = "fuzz: spec"
	f.Fuzz(func(t *testing.T, spec string) {
		name, arglist, ok := specargs.Split(spec)
		open := strings.Index(spec, "(")
		switch {
		case open < 0:
			if !ok || name != spec || arglist != "" {
				t.Fatalf("Split(%q) = %q, %q, %v; want the whole spec as name", spec, name, arglist, ok)
			}
		case ok:
			if name+"("+arglist+")" != spec || strings.Contains(name, "(") {
				t.Fatalf("Split(%q) = %q, %q: does not rebuild the spec", spec, name, arglist)
			}
		case strings.HasSuffix(spec, ")"):
			t.Fatalf("Split(%q) rejected a spec ending in )", spec)
		}
		if !ok {
			return
		}
		par, err := specargs.Parse(prefix, arglist, accepted)
		if err != nil {
			if !strings.HasPrefix(err.Error(), prefix) {
				t.Fatalf("Parse(%q) error %q lacks the prefix", arglist, err)
			}
			return
		}
		keys := make([]string, 0, len(par))
		for k := range par {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		pairs := make([]string, 0, len(keys))
		for _, k := range keys {
			found := false
			for _, a := range accepted {
				found = found || a == k
			}
			if !found {
				t.Fatalf("Parse(%q) accepted unknown key %q", arglist, k)
			}
			pairs = append(pairs, k+"="+par[k])

			want, werr := strconv.ParseInt(par[k], 10, 64)
			if werr != nil {
				want = 0
			}
			if got, gerr := par.Int64(k, 0); got != want || (gerr == nil) != (werr == nil) {
				t.Fatalf("Int64(%q=%q) = %d, %v; strconv says %d, %v", k, par[k], got, gerr, want, werr)
			}
			wantF, werr := strconv.ParseFloat(par[k], 64)
			if werr != nil {
				wantF = 0
			}
			if got, gerr := par.Float(k, 0); math.Float64bits(got) != math.Float64bits(wantF) || (gerr == nil) != (werr == nil) {
				t.Fatalf("Float(%q=%q) = %g, %v; strconv says %g, %v", k, par[k], got, gerr, wantF, werr)
			}
		}
		// Pairs are trimmed before the "=" cut, so no key starts and no
		// value ends with space, and values hold no comma: the canonical
		// rendering parses back to the same pairs.
		again, err := specargs.Parse(prefix, strings.Join(pairs, ","), accepted)
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", arglist, err)
		}
		if !reflect.DeepEqual(par, again) {
			t.Fatalf("round trip of %q: %v became %v", arglist, par, again)
		}
	})
}
