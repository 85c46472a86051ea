package offline_test

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"mcpaging/internal/core"
	"mcpaging/internal/offline"
)

// goldenInstance draws golden case i: p ∈ {1,2,3}, τ ∈ {0,1,2} and
// K ∈ {2,3,4} cycle with i, and the sequences come from a generator
// seeded by i.
func goldenInstance(i int) core.Instance {
	rng := rand.New(rand.NewSource(int64(1000 + i)))
	p, tau, k := 1+i%3, (i/3)%3, 2+(i/9)%3
	rs := make(core.RequestSet, p)
	for j := range rs {
		s := make(core.Sequence, 2+rng.Intn(4))
		for x := range s {
			s[x] = core.PageID(10*j + rng.Intn(3))
		}
		rs[j] = s
	}
	return core.Instance{R: rs, P: core.Params{K: k, Tau: tau}}
}

func ftfResult(sol offline.FTFSolution, err error) string {
	if err != nil {
		return "err(" + err.Error() + ")"
	}
	return fmt.Sprintf("%d/%d", sol.Faults, sol.States)
}

// goldenLine runs every FTF solver on one instance and renders faults,
// explored states (or the error) and a SHA-256 prefix of the schedule.
func goldenLine(in core.Instance, opts offline.Options) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%v K=%d τ=%d:", in.R, in.P.K, in.P.Tau)
	forcing := opts
	forcing.AllowForcing = true
	unpruned := opts
	unpruned.NoBranchPruning = true
	fmt.Fprintf(&b, " ftf=%s", ftfResult(offline.SolveFTF(in, opts)))
	fmt.Fprintf(&b, " ftf+force=%s", ftfResult(offline.SolveFTF(in, forcing)))
	fmt.Fprintf(&b, " ftf-prune=%s", ftfResult(offline.SolveFTF(in, unpruned)))
	fmt.Fprintf(&b, " seq=%s", ftfResult(offline.SolveFTFSeq(in, opts)))
	fmt.Fprintf(&b, " seq+force=%s", ftfResult(offline.SolveFTFSeq(in, forcing)))
	sol, sched, err := offline.SolveFTFSeqSchedule(in, opts)
	h := sha256.New()
	for _, d := range sched {
		fmt.Fprintf(h, "%d,%d,%d;", d.Core, d.Page, d.Victim)
	}
	fmt.Fprintf(&b, " sched=%s #%d %x", ftfResult(sol, err), len(sched), h.Sum(nil)[:8])
	return b.String()
}

// TestFTFSolversGolden pins what the three FTF solvers return — faults,
// explored states, error strings and the exact decision list — on 40
// seeded tiny instances plus a state-limit case, so that a change to the
// shared DP machinery cannot shift exploration order, pruning or
// tie-breaking unnoticed.
func TestFTFSolversGolden(t *testing.T) {
	var got []string
	for i := 0; i < 40; i++ {
		got = append(got, goldenLine(goldenInstance(i), offline.Options{}))
	}
	got = append(got, goldenLine(goldenInstance(26), offline.Options{MaxStates: 30}))
	if len(got) != len(ftfGolden) {
		t.Errorf("%d golden lines, want %d", len(got), len(ftfGolden))
	}
	for i, line := range got {
		if i >= len(ftfGolden) || line != ftfGolden[i] {
			t.Errorf("case %d:\n got %q", i, line)
			if i < len(ftfGolden) {
				t.Errorf("want %q", ftfGolden[i])
			}
		}
	}
}

var ftfGolden = []string{
	"[[1 0 2]] K=2 τ=0: ftf=3/5 ftf+force=3/7 ftf-prune=3/5 seq=3/5 seq+force=3/13 sched=3/5 #3 de81cd76cd3ab0cc",
	"[[2 0 2 2 1] [10 10 12 11]] K=2 τ=0: ftf=7/7 ftf+force=7/8 ftf-prune=7/7 seq=7/9 seq+force=7/27 sched=7/9 #7 a0c009d7beac4370",
	"[[2 2] [12 11 11] [20 22 20 20 20]] K=2 τ=0: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[1 0 2 1]] K=2 τ=1: ftf=3/13 ftf+force=3/19 ftf-prune=3/13 seq=3/13 seq+force=3/28 sched=3/13 #3 693462ae179de52f",
	"[[1 1 0 0 2] [12 12 10 10]] K=2 τ=1: ftf=5/11 ftf+force=5/13 ftf-prune=5/11 seq=5/11 seq+force=5/59 sched=5/11 #5 255a5b9c575912fc",
	"[[0 0 2 0] [11 12 12] [20 20]] K=2 τ=1: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[2 2 2 0 2]] K=2 τ=2: ftf=2/10 ftf+force=2/18 ftf-prune=2/10 seq=2/10 seq+force=2/29 sched=2/10 #2 3f62828da2c9ad46",
	"[[2 2] [12 11 12 11 10]] K=2 τ=2: ftf=5/28 ftf+force=5/39 ftf-prune=5/28 seq=4/31 seq+force=4/61 sched=4/31 #4 f586e7b3dc40b5a9",
	"[[2 0 0 0] [10 11 11] [22 22 21]] K=2 τ=2: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[0 1 0 1 2]] K=3 τ=0: ftf=3/6 ftf+force=3/12 ftf-prune=3/6 seq=3/6 seq+force=3/23 sched=3/6 #3 c22bd17c96482e64",
	"[[2 0 2] [11 11 12 10 11]] K=3 τ=0: ftf=5/16 ftf+force=5/28 ftf-prune=5/16 seq=5/18 seq+force=5/71 sched=5/18 #5 5961e9fb78af7d24",
	"[[0 2 1 0 2] [12 12 11 12] [22 22 20]] K=3 τ=0: ftf=10/14 ftf+force=10/21 ftf-prune=10/14 seq=10/15 seq+force=10/71 sched=10/15 #10 7935ffe353fdf791",
	"[[2 2 0]] K=3 τ=1: ftf=2/6 ftf+force=2/8 ftf-prune=2/6 seq=2/6 seq+force=2/13 sched=2/6 #2 3f62828da2c9ad46",
	"[[0 0 0 1] [11 12 11 12 10]] K=3 τ=1: ftf=5/21 ftf+force=5/52 ftf-prune=5/21 seq=5/29 seq+force=5/150 sched=5/29 #5 c275da1ead55b4bc",
	"[[0 1] [10 10 12] [22 21 21 21 20]] K=3 τ=1: ftf=7/13 ftf+force=7/25 ftf-prune=7/13 seq=7/27 seq+force=7/100 sched=7/27 #7 71e44b0d28dd3481",
	"[[1 2 2]] K=3 τ=2: ftf=2/8 ftf+force=2/12 ftf-prune=2/8 seq=2/8 seq+force=2/21 sched=2/8 #2 20b8f3ae1aeff5ae",
	"[[2 0 2 2 1] [11 10 11 12]] K=3 τ=2: ftf=7/57 ftf+force=7/110 ftf-prune=7/57 seq=7/77 seq+force=7/213 sched=7/77 #7 cc8b262a901cd6c7",
	"[[1 0 0] [10 10 10 11 11] [22 22]] K=3 τ=2: ftf=5/14 ftf+force=5/25 ftf-prune=5/14 seq=5/31 seq+force=5/143 sched=5/31 #5 4f594c02a34a1120",
	"[[1 2]] K=4 τ=0: ftf=2/3 ftf+force=2/4 ftf-prune=2/3 seq=2/3 seq+force=2/7 sched=2/3 #2 20b8f3ae1aeff5ae",
	"[[1 2 1 0] [11 10 11]] K=4 τ=0: ftf=5/8 ftf+force=5/25 ftf-prune=5/8 seq=5/8 seq+force=5/67 sched=5/8 #5 a0ee467ce39b252e",
	"[[2 1 2 1 0] [12 11 12 12] [22 22]] K=4 τ=0: ftf=7/19 ftf+force=7/44 ftf-prune=7/19 seq=7/20 seq+force=7/141 sched=7/20 #7 edf87e4bacf14819",
	"[[2 1 1]] K=4 τ=1: ftf=2/6 ftf+force=2/9 ftf-prune=2/6 seq=2/6 seq+force=2/16 sched=2/6 #2 f31c3b6f7c165285",
	"[[2 2 0 1] [10 12]] K=4 τ=1: ftf=5/14 ftf+force=5/47 ftf-prune=5/14 seq=5/14 seq+force=5/89 sched=5/14 #5 26657e15711e46b8",
	"[[2 0] [10 11 12] [20 21 21]] K=4 τ=1: ftf=7/23 ftf+force=7/50 ftf-prune=7/23 seq=7/30 seq+force=7/137 sched=7/30 #7 54ba69d76cc81fb6",
	"[[1 2 2 0]] K=4 τ=2: ftf=3/11 ftf+force=3/24 ftf-prune=3/11 seq=3/11 seq+force=3/37 sched=3/11 #3 627a67a07202cea5",
	"[[0 0] [11 11]] K=4 τ=2: ftf=2/5 ftf+force=2/5 ftf-prune=2/5 seq=2/5 seq+force=2/21 sched=2/5 #2 84c538c33d9971ff",
	"[[2 2 2] [12 11 12 10 10] [22 20]] K=4 τ=2: ftf=6/62 ftf+force=6/165 ftf-prune=6/62 seq=6/67 seq+force=6/390 sched=6/67 #6 726958163bb129be",
	"[[0 0 0 1 0]] K=2 τ=0: ftf=2/6 ftf+force=2/8 ftf-prune=2/6 seq=2/6 seq+force=2/15 sched=2/6 #2 890080265a892b84",
	"[[2 0] [10 10 12 10 12]] K=2 τ=0: ftf=4/9 ftf+force=4/12 ftf-prune=4/9 seq=4/9 seq+force=4/27 sched=4/9 #4 d04b7d166d2603b5",
	"[[1 2 0] [11 11] [22 21 22 20 22]] K=2 τ=0: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[1 2]] K=2 τ=1: ftf=2/5 ftf+force=2/7 ftf-prune=2/5 seq=2/5 seq+force=2/10 sched=2/5 #2 20b8f3ae1aeff5ae",
	"[[1 2 2] [12 11 11]] K=2 τ=1: ftf=4/6 ftf+force=4/6 ftf-prune=4/6 seq=4/6 seq+force=4/20 sched=4/6 #4 8bb3ccb26a321f88",
	"[[2 2 2 0 0] [11 12 11 12] [22 21 20]] K=2 τ=1: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[0 0]] K=2 τ=2: ftf=1/5 ftf+force=1/5 ftf-prune=1/5 seq=1/5 seq+force=1/9 sched=1/5 #1 105e1034b8fd74c5",
	"[[1 2 0 2] [10 12 12 12]] K=2 τ=2: ftf=6/16 ftf+force=6/20 ftf-prune=6/16 seq=6/21 seq+force=6/44 sched=6/21 #6 2b0a1149d21215c0",
	"[[2 0 1 1 2] [11 10 12] [20 21 21 22 20]] K=2 τ=2: ftf=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf+force=err(solve FTF: no feasible schedule (K too small for pinned pages)) ftf-prune=err(solve FTF: no feasible schedule (K too small for pinned pages)) seq=err(solve FTF seq: no feasible schedule) seq+force=err(solve FTF seq: no feasible schedule) sched=err(solve FTF seq schedule: no feasible schedule) #0 e3b0c44298fc1c14",
	"[[1 1 1]] K=3 τ=0: ftf=1/4 ftf+force=1/4 ftf-prune=1/4 seq=1/4 seq+force=1/7 sched=1/4 #1 17980d85ecf50779",
	"[[1 0 0 2 0] [10 12]] K=3 τ=0: ftf=5/16 ftf+force=5/31 ftf-prune=5/16 seq=5/16 seq+force=5/69 sched=5/16 #5 3c9a19791550a4e7",
	"[[2 1] [12 12 11] [20 20 21 20]] K=3 τ=0: ftf=6/11 ftf+force=6/17 ftf-prune=6/11 seq=6/15 seq+force=6/67 sched=6/15 #6 f0a8c7e4748ece40",
	"[[2 1 0]] K=3 τ=1: ftf=3/7 ftf+force=3/15 ftf-prune=3/7 seq=3/7 seq+force=3/22 sched=3/7 #3 5022ab14752952fd",
	"[[2 2 2] [12 11 12 10 10] [22 20]] K=4 τ=2: ftf=err(solve FTF: offline: state limit exceeded (limit 30)) ftf+force=err(solve FTF: offline: state limit exceeded (limit 30)) ftf-prune=err(solve FTF: offline: state limit exceeded (limit 30)) seq=err(solve FTF seq: offline: state limit exceeded (limit 30)) seq+force=err(solve FTF seq: offline: state limit exceeded (limit 30)) sched=err(solve FTF seq schedule: offline: state limit exceeded (limit 30)) #0 e3b0c44298fc1c14",
}

// BenchmarkFTFSolvers times the three FTF solvers on the largest golden
// instance (p=3, K=4, τ=2).
func BenchmarkFTFSolvers(b *testing.B) {
	in := goldenInstance(26)
	for _, bc := range []struct {
		name  string
		solve func() error
	}{
		{"ftf", func() error { _, err := offline.SolveFTF(in, offline.Options{}); return err }},
		{"seq", func() error { _, err := offline.SolveFTFSeq(in, offline.Options{}); return err }},
		{"schedule", func() error { _, _, err := offline.SolveFTFSeqSchedule(in, offline.Options{}); return err }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := bc.solve(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
