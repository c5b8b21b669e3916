package markov

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"codetomo/internal/cfg"
	"codetomo/internal/ir"
	"codetomo/internal/stats"
)

// diamond: b0 -Br-> b1|b2 -> b3 -> exit
func diamond() *cfg.Proc {
	return &cfg.Proc{
		Name:  "diamond",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Br{Cond: 0, True: 1, False: 2}},
			{ID: 1, Term: ir.Jmp{Target: 3}},
			{ID: 2, Term: ir.Jmp{Target: 3}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
}

// loop: b0 -> b1(head) -Br-> b2(body)|b3(exit); b2 -> b1
func loopProc() *cfg.Proc {
	return &cfg.Proc{
		Name:  "loop",
		Entry: 0,
		Blocks: []*cfg.Block{
			{ID: 0, Term: ir.Jmp{Target: 1}},
			{ID: 1, Term: ir.Br{Cond: 0, True: 2, False: 3}},
			{ID: 2, Term: ir.Jmp{Target: 1}},
			{ID: 3, Term: ir.Ret{Val: -1}},
		},
	}
}

func edge(a, b int) [2]ir.BlockID { return [2]ir.BlockID{ir.BlockID(a), ir.BlockID(b)} }

// arcCount returns how many times path traverses edge e.
func arcCount(ix *EdgeIndex, path Path, e [2]ir.BlockID) int {
	for _, a := range path {
		if ix.edges[a.Edge] == e {
			return int(a.Count)
		}
	}
	return 0
}

// blockVisits returns how many times a path of p visits block b: once if
// b is the entry, plus once per traversal of an edge into b.
func blockVisits(p *cfg.Proc, ix *EdgeIndex, path Path, b ir.BlockID) int {
	n := 0
	if p.Entry == b {
		n = 1
	}
	for _, a := range path {
		if ix.edges[a.Edge][1] == b {
			n += int(a.Count)
		}
	}
	return n
}

func TestUniform(t *testing.T) {
	ep := Uniform(diamond())
	if ep[edge(0, 1)] != 0.5 || ep[edge(0, 2)] != 0.5 {
		t.Fatalf("branch probs = %v", ep)
	}
	if ep[edge(1, 3)] != 1 {
		t.Fatalf("jump prob = %v", ep[edge(1, 3)])
	}
}

func TestNewValidates(t *testing.T) {
	p := diamond()
	ep := Uniform(p)
	if _, err := New(p, ep); err != nil {
		t.Fatal(err)
	}
	bad := ep.Clone()
	bad[edge(0, 1)] = 0.9 // sums to 1.4
	if _, err := New(p, bad); err == nil {
		t.Fatal("invalid probabilities accepted")
	}
	missing := ep.Clone()
	delete(missing, edge(0, 2))
	if _, err := New(p, missing); err == nil {
		t.Fatal("missing edge accepted")
	}
	neg := ep.Clone()
	neg[edge(0, 1)] = -0.1
	neg[edge(0, 2)] = 1.1
	if _, err := New(p, neg); err == nil {
		t.Fatal("negative probability accepted")
	}
}

func TestExpectedVisitsDiamond(t *testing.T) {
	p := diamond()
	ep := Uniform(p)
	ep[edge(0, 1)] = 0.3
	ep[edge(0, 2)] = 0.7
	c, err := New(p, ep)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ExpectedVisits()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0.3, 0.7, 1}
	for i := range want {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Fatalf("visits = %v, want %v", v, want)
		}
	}
	tr, err := c.ExpectedEdgeTraversals()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(tr[edge(0, 1)]-0.3) > 1e-12 || math.Abs(tr[edge(1, 3)]-0.3) > 1e-12 {
		t.Fatalf("traversals = %v", tr)
	}
}

func TestExpectedVisitsLoop(t *testing.T) {
	// Loop continues with probability q: body visited q/(1-q)·... —
	// header expected visits = 1/(1-q), body = q/(1-q).
	p := loopProc()
	q := 0.8
	ep := Uniform(p)
	ep[edge(1, 2)] = q
	ep[edge(1, 3)] = 1 - q
	c, err := New(p, ep)
	if err != nil {
		t.Fatal(err)
	}
	v, err := c.ExpectedVisits()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v[1]-5) > 1e-9 {
		t.Fatalf("header visits = %v, want 5", v[1])
	}
	if math.Abs(v[2]-4) > 1e-9 {
		t.Fatalf("body visits = %v, want 4", v[2])
	}
}

func TestNotAbsorbing(t *testing.T) {
	p := loopProc()
	ep := Uniform(p)
	ep[edge(1, 2)] = 1
	ep[edge(1, 3)] = 0
	c, err := New(p, ep)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExpectedVisits(); err == nil {
		t.Fatal("non-absorbing chain accepted")
	}
}

func costsFor(p *cfg.Proc, block float64) *Costs {
	c := &Costs{Block: make([]float64, len(p.Blocks)), Edge: make(map[[2]ir.BlockID]float64)}
	for i := range c.Block {
		c.Block[i] = block
	}
	for _, e := range p.Edges() {
		c.Edge[[2]ir.BlockID{e.From, e.To}] = 0
	}
	return c
}

func TestMeanVarDiamondAnalytic(t *testing.T) {
	p := diamond()
	ep := Uniform(p)
	ep[edge(0, 1)] = 0.25
	ep[edge(0, 2)] = 0.75
	c, _ := New(p, ep)

	costs := costsFor(p, 0)
	costs.Block[0] = 10
	costs.Block[1] = 100 // rare fast/slow arm
	costs.Block[2] = 20
	costs.Block[3] = 5
	costs.EntryOverhead = 3

	mean, variance, err := c.MeanVar(costs)
	if err != nil {
		t.Fatal(err)
	}
	// T = 3 + 10 + (100 w.p. .25 | 20 w.p. .75) + 5.
	wantMean := 3 + 10 + 0.25*100 + 0.75*20 + 5
	wantVar := 0.25 * 0.75 * (100 - 20) * (100 - 20)
	if math.Abs(mean-wantMean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", mean, wantMean)
	}
	if math.Abs(variance-wantVar) > 1e-6 {
		t.Fatalf("variance = %v, want %v", variance, wantVar)
	}
}

func TestMeanVarGeometricLoop(t *testing.T) {
	// Loop body executes K ~ Geometric(1-q) times; with unit block costs
	// analytic mean/var follow from the geometric distribution.
	p := loopProc()
	q := 0.6
	ep := Uniform(p)
	ep[edge(1, 2)] = q
	ep[edge(1, 3)] = 1 - q
	c, _ := New(p, ep)

	costs := costsFor(p, 0)
	costs.Block[2] = 7 // only the body costs time

	mean, variance, err := c.MeanVar(costs)
	if err != nil {
		t.Fatal(err)
	}
	// K ~ Geom: E[K] = q/(1-q), Var[K] = q/(1-q)².
	ek := q / (1 - q)
	vk := q / ((1 - q) * (1 - q))
	if math.Abs(mean-7*ek) > 1e-9 {
		t.Fatalf("mean = %v, want %v", mean, 7*ek)
	}
	if math.Abs(variance-49*vk) > 1e-6 {
		t.Fatalf("variance = %v, want %v", variance, 49*vk)
	}
}

// samplePath draws a random path through the chain, with arcs indexed by
// ix, the EdgeIndex of the chain's procedure; rng returns uniform [0,1).
// ok is false if the walk does not absorb within maxSteps.
func (c *Chain) samplePath(ix *EdgeIndex, rng func() float64, maxSteps int) (path Path, ok bool) {
	cur := c.proc.Entry
	for step := 0; step < maxSteps; step++ {
		succs := c.proc.Block(cur).Succs()
		if len(succs) == 0 {
			return path, true
		}
		u, acc, next := rng(), 0.0, succs[len(succs)-1]
		for _, s := range succs {
			if acc += c.probs[[2]ir.BlockID{cur, s}]; u < acc {
				next = s
				break
			}
		}
		e := ix.arcIndex([2]ir.BlockID{cur, next})
		k := slices.IndexFunc(path, func(a Arc) bool { return a.Edge == e })
		if k < 0 {
			k, path = len(path), append(path, Arc{Edge: e})
		}
		path[k].Count++
		cur = next
	}
	return nil, false
}

func TestMeanVarMatchesSimulation(t *testing.T) {
	p := loopProc()
	ep := Uniform(p)
	ep[edge(1, 2)] = 0.7
	ep[edge(1, 3)] = 0.3
	c, _ := New(p, ep)
	costs := costsFor(p, 1)
	costs.Edge[edge(1, 2)] = 2.5
	costs.EntryOverhead = 4

	mean, variance, err := c.MeanVar(costs)
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(99)
	ix := NewEdgeIndex(p)
	paths := make([]Path, 200000)
	for i := range paths {
		var ok bool
		if paths[i], ok = c.samplePath(ix, rng.Float64, 100000); !ok {
			t.Fatal("sample failed to absorb")
		}
	}
	var m stats.Moments
	for _, pt := range PathTimes(p, ix, paths, costs) {
		m.Push(pt)
	}
	if math.Abs(m.Mean()-mean) > 0.01*mean {
		t.Fatalf("simulated mean %v vs analytic %v", m.Mean(), mean)
	}
	if math.Abs(m.Variance()-variance) > 0.03*variance {
		t.Fatalf("simulated var %v vs analytic %v", m.Variance(), variance)
	}
}

func TestEnumerateDiamond(t *testing.T) {
	p := diamond()
	ix := NewEdgeIndex(p)
	paths, mult, truncated := Enumerate(p, ix, EnumerateOptions{MaxVisits: 6, MaxPaths: 4096})
	if truncated {
		t.Fatal("diamond enumeration truncated")
	}
	if len(paths) != 2 || !slices.Equal(mult, []int{1, 1}) {
		t.Fatalf("paths = %d with multiplicities %v, want 2 of 1", len(paths), mult)
	}
	q := denseProbs(ix, Uniform(p))
	total := 0.0
	for _, path := range paths {
		total += pathProbReference(path, q)
	}
	if math.Abs(total-1) > 1e-12 {
		t.Fatalf("path probabilities sum to %v", total)
	}
}

func TestEnumerateLoopTruncation(t *testing.T) {
	p := loopProc()
	ix := NewEdgeIndex(p)
	paths, _, truncated := Enumerate(p, ix, EnumerateOptions{MaxVisits: 4, MaxPaths: 100})
	if !truncated {
		t.Fatal("loop enumeration must truncate")
	}
	// Paths: 0,1,2,3 iterations of the body (header visited ≤ 4 times).
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	maxBody := 0
	for _, path := range paths {
		if n := arcCount(ix, path, edge(2, 1)); n > maxBody {
			maxBody = n
		}
	}
	if maxBody != 3 {
		t.Fatalf("max back-edge traversals = %d, want 3", maxBody)
	}
}

func TestEnumerateMaxPaths(t *testing.T) {
	p := loopProc()
	_, mult, truncated := Enumerate(p, NewEdgeIndex(p), EnumerateOptions{MaxVisits: 50, MaxPaths: 5})
	n := 0
	for _, k := range mult {
		n += k
	}
	if !truncated || n > 5 {
		t.Fatalf("cap not honored: %d paths, truncated=%v", n, truncated)
	}
}

// Property: for random absorbing diamonds-with-loop, expected visits are
// consistent with path enumeration (visits = Σ_paths prob · count).
func TestVisitsMatchPathsProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := stats.NewRNG(seed)
		p := loopProc()
		q := 0.05 + 0.6*rng.Float64()
		ep := Uniform(p)
		ep[edge(1, 2)] = q
		ep[edge(1, 3)] = 1 - q
		c, err := New(p, ep)
		if err != nil {
			return false
		}
		visits, err := c.ExpectedVisits()
		if err != nil {
			return false
		}
		// Enumerate deep enough that the truncated tail is negligible.
		ix := NewEdgeIndex(p)
		paths, mult, _ := Enumerate(p, ix, EnumerateOptions{MaxVisits: 60, MaxPaths: 100000})
		dense := denseProbs(ix, ep)
		est := make([]float64, len(p.Blocks))
		for j, path := range paths {
			pr := float64(mult[j]) * pathProbReference(path, dense)
			for b := range est {
				est[b] += pr * float64(blockVisits(p, ix, path, ir.BlockID(b)))
			}
		}
		for i := range visits {
			if math.Abs(visits[i]-est[i]) > 1e-6*(1+visits[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
