package exact

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/platform"
	"repro/internal/sched"
	"repro/internal/taskgen"
)

// bruteMinMakespan is a test-only exhaustive oracle, independent of the
// branch-and-bound: it runs the serial schedule-generation scheme over
// every precedence-feasible order of g's nodes and returns the least
// makespan. Each node, in order, starts at max(ready time, earliest-free
// machine of its class); zero-WCET nodes take no machine, and on a platform
// with no devices every node runs in class 0. Serial SGS reaches an optimal
// schedule for some order (see the package doc), so the minimum over all
// orders is the optimum. Only for tiny graphs: the search is n!.
func bruteMinMakespan(t testing.TB, g *dag.Graph, p platform.Platform) int64 {
	t.Helper()
	n := g.NumNodes()
	cls := make([]int, n)
	indeg := make([]int, n)
	for v := 0; v < n; v++ {
		if p.Devices() > 0 {
			cls[v] = g.Class(v)
		}
		if g.WCET(v) > 0 && p.Count(cls[v]) < 1 {
			t.Fatalf("oracle: node %d needs class %d, which has no machine on %v", v, cls[v], p)
		}
		indeg[v] = len(g.Preds(v))
	}
	free := make([][]int64, p.NumClasses()) // per machine: when it frees up
	for c := range free {
		free[c] = make([]int64, p.Count(c))
	}
	finish := make([]int64, n)
	done := make([]bool, n)
	best := int64(math.MaxInt64)
	var place func(k int, span int64)
	place = func(k int, span int64) {
		if k == n {
			best = min(best, span)
			return
		}
		for v := 0; v < n; v++ {
			if done[v] || indeg[v] > 0 {
				continue
			}
			start := int64(0)
			for _, u := range g.Preds(v) {
				start = max(start, finish[u])
			}
			ms, mi := free[cls[v]], -1
			if g.WCET(v) > 0 {
				mi = 0
				for i := range ms {
					if ms[i] < ms[mi] {
						mi = i
					}
				}
				start = max(start, ms[mi])
			}
			finish[v] = start + g.WCET(v)
			var freed int64
			if mi >= 0 {
				freed, ms[mi] = ms[mi], finish[v]
			}
			done[v] = true
			for _, w := range g.Succs(v) {
				indeg[w]--
			}
			place(k+1, max(span, finish[v]))
			for _, w := range g.Succs(v) {
				indeg[w]++
			}
			done[v] = false
			if mi >= 0 {
				ms[mi] = freed
			}
		}
	}
	place(0, 0)
	return best
}

// threeClass is a host core plus one GPU and one FPGA.
func threeClass() platform.Platform {
	return platform.New(
		platform.ResourceClass{Name: "host", Count: 1},
		platform.ResourceClass{Name: "gpu", Count: 1},
		platform.ResourceClass{Name: "fpga", Count: 1},
	)
}

// TestOracleHandInstances pins the oracle and the branch-and-bound to the
// known optima of small hand-built instances.
func TestOracleHandInstances(t *testing.T) {
	fork := func(off dag.NodeKind) *dag.Graph { // s(1) → {vOff(4), a(4)} → t(1)
		g := dag.New()
		s := g.AddNode("s", 1, dag.Host)
		v := g.AddNode("vOff", 4, off)
		a := g.AddNode("a", 4, dag.Host)
		e := g.AddNode("t", 1, dag.Host)
		g.MustAddEdge(s, v)
		g.MustAddEdge(s, a)
		g.MustAddEdge(v, e)
		g.MustAddEdge(a, e)
		return g
	}
	chain := dag.New()
	chain.MustAddEdge(chain.AddNode("", 2, dag.Host), chain.AddNode("", 3, dag.Host))
	pair := dag.New()
	pair.AddNode("", 2, dag.Host)
	pair.AddNode("", 3, dag.Host)
	zero := dag.New()
	z0, z1, z2 := zero.AddNode("", 0, dag.Host), zero.AddNode("", 3, dag.Host), zero.AddNode("", 0, dag.Sync)
	zero.MustAddEdge(z0, z1)
	zero.MustAddEdge(z1, z2)
	// s(1) then {gpu(4), fpga(4), h(3)} on their own machines, then e(1).
	multi := dag.New()
	ms := multi.AddNode("s", 1, dag.Host)
	gpu := multi.AddNode("gpu", 4, dag.Offload)
	fpga := multi.AddNode("fpga", 4, dag.Offload)
	multi.SetClass(fpga, 2)
	h := multi.AddNode("h", 3, dag.Host)
	me := multi.AddNode("e", 1, dag.Host)
	for _, v := range []int{gpu, fpga, h} {
		multi.MustAddEdge(ms, v)
		multi.MustAddEdge(v, me)
	}
	for _, tc := range []struct {
		name string
		g    *dag.Graph
		p    platform.Platform
		want int64
	}{
		{"chain", chain, platform.Homogeneous(2), 5},
		{"parallel-on-one-core", pair, platform.Homogeneous(1), 5},
		{"offload-overlap", fork(dag.Offload), platform.Hetero(1), 6},
		{"offload-on-host", fork(dag.Offload), platform.Homogeneous(1), 10},
		{"zero-wcet", zero, platform.Homogeneous(1), 3},
		{"three-class", multi, threeClass(), 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := bruteMinMakespan(t, tc.g, tc.p); got != tc.want {
				t.Fatalf("oracle = %d, want %d", got, tc.want)
			}
			if got := mustOptimal(t, tc.g, tc.p).Makespan; got != tc.want {
				t.Fatalf("branch-and-bound = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestOracleAgreesWithBranchAndBound cross-checks MinMakespan against the
// exhaustive oracle on random tiny graphs (n ≤ 8; every other one with an
// offloaded node, which the 3-class platform sends to the FPGA on every
// fourth graph). The oracle must also beat the best scheduling heuristic
// somewhere, or the comparison could not tell an optimum from a
// heuristic's makespan.
func TestOracleAgreesWithBranchAndBound(t *testing.T) {
	gen := taskgen.MustNew(taskgen.Params{
		PPar: 0.6, NPar: 3, MaxDepth: 2, NMin: 3, NMax: 8, CMin: 1, CMax: 5,
	}, 31415)
	plats := []platform.Platform{
		platform.Homogeneous(1), platform.Homogeneous(2),
		platform.Hetero(1), platform.Hetero(2), platform.Hetero(3), threeClass(),
	}
	beaten := 0
	for i := 0; i < 12; i++ {
		g, err := gen.Graph()
		if err != nil {
			t.Fatal(err)
		}
		if g.NumNodes() > 8 {
			t.Fatalf("graph %d has %d nodes; the oracle is for n ≤ 8", i, g.NumNodes())
		}
		if i%2 == 0 {
			taskgen.SetOffload(g, g.NumNodes()/2, 0.3)
		}
		for _, p := range plats {
			h := g
			if p.NumClasses() == 3 && i%4 == 0 {
				h = g.Clone()
				h.SetClass(h.OffloadNodes()[0], 2)
			}
			want := bruteMinMakespan(t, h, p)
			if got := mustOptimal(t, h, p).Makespan; got != want {
				t.Fatalf("graph %d on %v: branch-and-bound %d ≠ oracle %d\n%s", i, p, got, want, h.DOT("g"))
			}
			heur := int64(math.MaxInt64)
			for _, pol := range sched.Heuristics() {
				r, err := sched.Simulate(h, p, pol)
				if err != nil {
					t.Fatal(err)
				}
				heur = min(heur, r.Makespan)
			}
			if want > heur {
				t.Fatalf("graph %d on %v: oracle %d above heuristic %d", i, p, want, heur)
			}
			if want < heur {
				beaten++
			}
		}
	}
	if beaten == 0 {
		t.Fatal("the oracle never beat the best heuristic: the cross-check cannot tell optima from heuristics")
	}
	t.Logf("oracle below the best heuristic on %d of %d instances", beaten, 12*len(plats))
}
