package experiments

import (
	"bytes"
	"regexp"
	"testing"
)

var (
	// trailingFloat matches a decimal at the end of a line: the
	// wall-clock "ms" column is always a table's last.
	trailingFloat = regexp.MustCompile(`[0-9]+\.[0-9]+\n`)
	// ruleLastRun matches the last dash run of a table's rule line,
	// whose width follows the widest value of the last column.
	ruleLastRun = regexp.MustCompile(`(?m)^((?:-+ +)*)-+$`)
)

// stripTimings removes the wall-clock "ms" values, the only
// run-dependent content in the reports, and the width they give the
// last dash run of each table's rule line.
func stripTimings(s string) string {
	s = trailingFloat.ReplaceAllString(s, "X\n")
	return ruleLastRun.ReplaceAllString(s, "${1}-")
}

func TestStripTimings(t *testing.T) {
	cases := []struct {
		name  string
		a, b  string
		equal bool
	}{
		{
			name:  "timing widths",
			a:     "n  states  ms\n-  ------  -----\n2  4       0.006\n3  6       0.01\n",
			b:     "n  states  ms\n-  ------  ------\n2  4       12.345\n3  6       0.008\n",
			equal: true,
		},
		{
			name:  "two tables",
			a:     "x  ms\n-  -----\n1  0.004\n\ny  ms\n-  -----\n1  0.005\n",
			b:     "x  ms\n-  -------\n1  123.456\n\ny  ms\n-  ------\n1  10.005\n",
			equal: true,
		},
		{
			name:  "a count differs",
			a:     "n  states  ms\n-  ------  -----\n2  4       0.006\n",
			b:     "n  states  ms\n-  ------  -----\n2  5       0.006\n",
			equal: false,
		},
		{
			name:  "an inner column width differs",
			a:     "n  states  ms\n-  ------  -----\n2  4       0.006\n",
			b:     "n  states   ms\n-  -------  -----\n2  4000000  0.006\n",
			equal: false,
		},
	}
	for _, tc := range cases {
		if got := stripTimings(tc.a) == stripTimings(tc.b); got != tc.equal {
			t.Errorf("%s: stripped outputs equal = %v, want %v:\n%s\n%s",
				tc.name, got, tc.equal, stripTimings(tc.a), stripTimings(tc.b))
		}
	}
}

func TestRunAllParallelMatchesSerial(t *testing.T) {
	cfg := Config{Quick: true, Seed: 11}
	var serial, parallel bytes.Buffer
	if err := RunAll(cfg, &serial); err != nil {
		t.Fatal(err)
	}
	if err := RunAllParallel(cfg, &parallel, 4); err != nil {
		t.Fatal(err)
	}
	if stripTimings(serial.String()) != stripTimings(parallel.String()) {
		t.Fatal("parallel run output differs from serial")
	}
}

func TestRunAllParallelSingleWorker(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAllParallel(Config{Quick: true, Seed: 2}, &buf, 1); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no output")
	}
}

func TestRunAllParallelDefaultWorkers(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAllParallel(Config{Quick: true, Seed: 2}, &buf, 0); err != nil {
		t.Fatal(err)
	}
}
