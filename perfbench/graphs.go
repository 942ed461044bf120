package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"os"
	"path/filepath"

	hetrta "repro"
	"repro/internal/experiments"
	"repro/internal/service"
	"repro/internal/taskgen"
)

// Sizes of the graph workloads at scale 1. A timed phase ends early when
// its plan runs out, so each plan holds more ops than ten seconds take on
// the machine the benchmark was tuned on.
const (
	coldCache   = 1024 // report-cache entries of analyze-cold
	coldPrefill = 1536 // 1.5x the cache, so every shard is full before timing
	coldPlan    = 16384

	// serve-hot replays the repeat and iso classes of cmd/dagrtaload's
	// mix: a hot set of 12 graphs (its -hot default), each a
	// Small(8,24).HetTask(0.15), drawn zipfian with s = 1.3 and offset 1,
	// with 15 relabelings to every 55 exact repeats. hotTenants clients
	// each replay that mix over a hot set of their own, one client picked
	// uniformly per op, so the store log holds a few thousand records, all
	// resident in the daemon's 4096-entry cache.
	hotTenants   = 256
	hotSet       = 12
	hotOffload   = 0.15
	hotZipfS     = 1.3
	hotZipfV     = 1
	hotRepeatPct = 55
	hotIsoPct    = 15
	hotVariants  = 3 // relabelings held per hot graph
	hotWarmOps   = 8192
	hotPlan      = 1 << 19

	exactWarm = 1024
	exactPlan = 40960
)

// graphBench is the three workloads whose op is one /v1/analyze request:
// decode a task graph from wire JSON and call Service.Analyze.
type graphBench struct {
	base
	name  string
	scale float64

	inputs     [][]byte // each distinct input once
	warm, plan []int32  // input index of each warm-up and timed op

	// serve-hot: the hot graph each input is a form of, the body that
	// graph first produced, and the log of the lifetime that produced it.
	hotOf    []int32
	expected [][]byte
	logPath  string

	g   *hetrta.Graph   // the graph op decoded
	res *service.Result // what the service returned for it
	idx int32           // its input index
}

func newGraphBench(name string, scale float64) *graphBench {
	b := &graphBench{name: name, scale: scale}
	b.deterministic = name != "exact-small"
	return b
}

// scaled shrinks a size for tests, keeping at least one.
func scaled(n int, scale float64) int {
	return max(1, int(math.Round(float64(n)*scale)))
}

func (b *graphBench) planLen() int { return len(b.plan) }

func (b *graphBench) wholePlan() bool { return false }

// mix describes the timed plan: for serve-hot, how its ops spread over
// the hot graphs and their relabelings.
func (b *graphBench) mix() string {
	if b.name != "serve-hot" {
		return fmt.Sprintf("%d distinct inputs, each sent once", len(b.plan))
	}
	forms := int32(1 + hotVariants)
	relabeled, top := 0, 0
	touched := map[int32]bool{}
	for _, idx := range b.plan {
		if idx%forms != 0 {
			relabeled++
		}
		g := b.hotOf[idx]
		if g%hotSet == 0 {
			top++
		}
		touched[g] = true
	}
	pct := func(k int) float64 { return 100 * float64(k) / float64(len(b.plan)) }
	graphs := len(b.hotOf) / int(forms)
	return fmt.Sprintf("%d ops over %d clients' hot sets of %d: relabelings %.1f%%, a client's top graph %.1f%%, %d of %d hot graphs sent",
		len(b.plan), graphs/hotSet, hotSet, pct(relabeled), pct(top), len(touched), graphs)
}

func (b *graphBench) generate(seed int64, dir string, h hash.Hash) error {
	r := rand.New(rand.NewSource(seed))
	switch b.name {
	case "analyze-cold":
		gen, err := taskgen.New(experiments.Default(0).Params, seed)
		if err != nil {
			return err
		}
		warm, plan := scaled(coldPrefill, b.scale), scaled(coldPlan, b.scale)
		if err := b.hetTasks(gen, r, warm+plan); err != nil {
			return err
		}
		b.warm, b.plan = indices(0, warm), indices(warm, warm+plan)
	case "exact-small":
		gen, err := taskgen.New(taskgen.Small(8, 24), seed)
		if err != nil {
			return err
		}
		warm, plan := scaled(exactWarm, b.scale), scaled(exactPlan, b.scale)
		if err := b.hetTasks(gen, r, warm+plan); err != nil {
			return err
		}
		b.warm, b.plan = indices(0, warm), indices(warm, warm+plan)
	case "serve-hot":
		if err := b.generateHot(seed, r); err != nil {
			return err
		}
	}
	for _, in := range b.inputs {
		binary.Write(h, binary.LittleEndian, int64(len(in)))
		h.Write(in)
	}
	binary.Write(h, binary.LittleEndian, b.warm)
	binary.Write(h, binary.LittleEndian, b.plan)
	if b.name == "serve-hot" {
		return b.writeHotLog(dir)
	}
	return nil
}

// hetTasks appends n paper tasks with one offloaded node each, the
// offloaded share of the volume drawn from the COff/vol targets the
// paper's experiments sweep.
func (b *graphBench) hetTasks(gen *taskgen.Generator, r *rand.Rand, n int) error {
	fracs := experiments.Default(0).Fractions
	for i := 0; i < n; i++ {
		g, _, _, err := gen.HetTask(fracs[r.Intn(len(fracs))])
		if err != nil {
			return err
		}
		data, err := json.Marshal(g)
		if err != nil {
			return err
		}
		b.inputs = append(b.inputs, data)
	}
	return nil
}

// indices returns the input indices from, ..., to-1.
func indices(from, to int) []int32 {
	s := make([]int32, 0, to-from)
	for i := from; i < to; i++ {
		s = append(s, int32(i))
	}
	return s
}

// generateHot builds every client's hot set, hotVariants relabelings of
// each hot graph, and the warm-up and timed plans over them.
func (b *graphBench) generateHot(seed int64, r *rand.Rand) error {
	gen, err := taskgen.New(taskgen.Small(8, 24), seed)
	if err != nil {
		return err
	}
	tenants := scaled(hotTenants, b.scale)
	forms := 1 + hotVariants
	for i := 0; i < tenants*hotSet; i++ {
		g, _, _, err := gen.HetTask(hotOffload)
		if err != nil {
			return err
		}
		orig, err := json.Marshal(g)
		if err != nil {
			return err
		}
		b.inputs = append(b.inputs, orig)
		for v := 0; v < hotVariants; v++ {
			form, err := relabel(r, orig)
			if err != nil {
				return err
			}
			b.inputs = append(b.inputs, form)
		}
		for v := 0; v < forms; v++ {
			b.hotOf = append(b.hotOf, int32(i))
		}
	}
	// A client's graphs rank in generation order, as in cmd/dagrtaload.
	zipf := rand.NewZipf(r, hotZipfS, hotZipfV, hotSet-1)
	draw := func(ops int) []int32 {
		plan := make([]int32, ops)
		for k := range plan {
			g := r.Intn(tenants)*hotSet + int(zipf.Uint64())
			form := 0
			if r.Intn(hotRepeatPct+hotIsoPct) < hotIsoPct {
				form = 1 + r.Intn(hotVariants)
			}
			plan[k] = int32(g*forms + form)
		}
		return plan
	}
	b.warm = draw(scaled(hotWarmOps, b.scale))
	b.plan = draw(scaled(hotPlan, b.scale))
	return nil
}

// relabel re-serializes a graph with its node order shuffled and its edge
// endpoints remapped: different bytes, the same graph up to isomorphism.
func relabel(r *rand.Rand, data []byte) ([]byte, error) {
	var wg struct {
		Nodes []json.RawMessage `json:"nodes"`
		Edges [][2]int          `json:"edges"`
	}
	if err := json.Unmarshal(data, &wg); err != nil {
		return nil, err
	}
	for {
		perm := r.Perm(len(wg.Nodes)) // perm[old] = new position
		nodes := make([]json.RawMessage, len(wg.Nodes))
		for old, pos := range perm {
			nodes[pos] = wg.Nodes[old]
		}
		edges := make([][2]int, len(wg.Edges))
		for i, e := range wg.Edges {
			edges[i] = [2]int{perm[e[0]], perm[e[1]]}
		}
		out, err := json.Marshal(struct {
			Nodes []json.RawMessage `json:"nodes"`
			Edges [][2]int          `json:"edges"`
		}{nodes, edges})
		if err != nil || !bytes.Equal(out, data) {
			return out, err
		}
	}
}

// writeHotLog is the earlier, untimed service lifetime of serve-hot: it
// analyzes every hot graph once into a store log, which each set-up then
// warm-starts from, and keeps the bodies as the expected responses.
func (b *graphBench) writeHotLog(dir string) error {
	b.logPath = filepath.Join(dir, "serve-hot.log")
	st, err := newStack(false, 0)
	if err != nil {
		return err
	}
	b.stack = st
	if err := b.fillHotLog(); err != nil {
		b.tearDown()
		return err
	}
	// Close flushes the log; the set-ups read it back.
	return b.tearDown()
}

func (b *graphBench) fillHotLog() error {
	if err := b.attachStore(b.logPath); err != nil {
		return err
	}
	ctx := context.Background()
	forms := 1 + hotVariants
	n := len(b.inputs) / forms
	for i := 0; i < n; i++ {
		if err := b.execInput(ctx, int32(i*forms), nil); err != nil {
			return err
		}
		if b.res.Hit {
			return fmt.Errorf("hot graph %d hit an empty cache", i)
		}
		b.expected = append(b.expected, b.res.Body)
		for v := 1; v < forms; v++ {
			form := hetrta.NewGraph()
			if err := json.Unmarshal(b.inputs[i*forms+v], form); err != nil {
				return err
			}
			if form.Fingerprint() != b.res.Fingerprint {
				return fmt.Errorf("relabeling %d of hot graph %d changes its fingerprint", v, i)
			}
		}
		if i%256 == 255 {
			b.store.Flush() // keep the write-behind queue from shedding records
		}
	}
	b.store.Flush()
	if s := b.svc().Stats().Store; s.Appends != uint64(n) || s.Dropped != 0 {
		return fmt.Errorf("store log holds %d of %d records (%d dropped)", s.Appends, n, s.Dropped)
	}
	return nil
}

func (b *graphBench) setUp(ctx context.Context, dir string, traced bool) error {
	cache := 0 // the daemon's default, 4096
	if b.name == "analyze-cold" {
		cache = coldCache
	}
	st, err := newStack(b.name == "exact-small", cache)
	if err != nil {
		return err
	}
	b.stack, b.warmStart = st, 0
	if b.name == "serve-hot" {
		if err := b.attachStore(b.logPath); err != nil {
			return err
		}
	}
	for _, idx := range b.warm {
		if err := b.execInput(ctx, idx, nil); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
		if err := b.check(); err != nil {
			return fmt.Errorf("warm-up op: %w", err)
		}
	}
	if b.name == "analyze-cold" {
		// Attached after the prefill, so the timed phase starts on an
		// empty log and every op appends one record.
		path := filepath.Join(dir, "analyze-cold.log")
		if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
			return err
		}
		return b.attachStore(path)
	}
	return nil
}

func (b *graphBench) exec(ctx context.Context, i int, tr *tracer) error {
	return b.execInput(ctx, b.plan[i], tr)
}

// execInput decodes input idx and serves it: the untraced op is exactly
// what the daemon's /v1/analyze handler does between reading the body and
// writing the response. The traced op takes the fingerprint in a span of
// its own first; the service then finds it memoized on the graph.
func (b *graphBench) execInput(ctx context.Context, idx int32, tr *tracer) error {
	b.idx, b.res = idx, nil
	g := hetrta.NewGraph()
	s := tr.withAlloc(tr.begin(lDecode))
	err := json.Unmarshal(b.inputs[idx], g)
	tr.end(s)
	if err != nil {
		return fmt.Errorf("decoding input %d: %w", idx, err)
	}
	if tr != nil {
		s = tr.begin(lFingerprint)
		g.Fingerprint()
		tr.end(s)
	}
	s = tr.begin(lCall)
	res, err := b.svc().Analyze(ctx, g)
	tr.end(s)
	b.g, b.res = g, res
	return err
}

func (b *graphBench) verify(int) error {
	b.noteBody(b.res.Body)
	return b.check()
}

// check validates the result of the op just run.
func (b *graphBench) check() error {
	res := b.res
	switch b.name {
	case "analyze-cold":
		if res.Hit || res.Shared {
			return errors.New("served from the cache; every analyze-cold op must be a fresh analysis")
		}
		return checkSafeBounds(res.Report)
	case "serve-hot":
		if !res.Hit {
			return fmt.Errorf("input %d missed the cache", b.idx)
		}
		if !bytes.Equal(res.Body, b.expected[b.hotOf[b.idx]]) {
			return fmt.Errorf("input %d: body differs from the one its fingerprint first produced", b.idx)
		}
		return nil
	default:
		return checkLattice(res.Report)
	}
}

// checkSafeBounds checks that no safe bound lies below the critical path,
// which every schedule of the task takes at least.
func checkSafeBounds(rep *hetrta.Report) error {
	cp := float64(rep.Graph.CriticalPath)
	for _, bd := range rep.Bounds {
		if bd.Skipped == "" && !bd.Unsafe && bd.Value < cp {
			return fmt.Errorf("bound %s = %v is below the critical path %v", bd.Name, bd.Value, cp)
		}
	}
	return nil
}

// checkLattice checks the crosscheck lattice on one report: the exact
// oracle's lower bound ≤ its makespan ≤ the simulated makespan ≤ every
// bound, each bound compared with the schedule its BoundLattice relation
// names.
func checkLattice(rep *hetrta.Report) error {
	const eps = 1e-9
	if rep.Simulation == nil {
		return errors.New("report has no simulation")
	}
	sim := float64(rep.Simulation.Makespan)
	if ex := rep.Exact; ex != nil {
		if ex.LowerBound > ex.Makespan {
			return fmt.Errorf("exact lower bound %d exceeds makespan %d", ex.LowerBound, ex.Makespan)
		}
		if float64(ex.Makespan) > sim+eps {
			return fmt.Errorf("exact makespan %d exceeds simulated %v", ex.Makespan, sim)
		}
	}
	for _, bd := range rep.Bounds {
		entry, ok := hetrta.BoundLattice[bd.Name]
		if !ok {
			return fmt.Errorf("bound %s is not in BoundLattice", bd.Name)
		}
		if bd.Skipped != "" {
			continue
		}
		switch entry.Relation {
		case hetrta.BoundsSim:
			if entry.SingleOffloadOnly && rep.Graph.Offloads > 1 {
				continue
			}
			if sim > bd.Value+eps {
				return fmt.Errorf("simulated %v exceeds %s %v", sim, bd.Name, bd.Value)
			}
		case hetrta.BoundsSimTransformed:
			if simT := float64(rep.Simulation.MakespanTransformed); simT > bd.Value+eps {
				return fmt.Errorf("simulated τ' %v exceeds %s %v", simT, bd.Name, bd.Value)
			}
		}
	}
	return nil
}

// replay re-runs, span by span, the stages the service ran inside the
// op's call, on the same graph and configuration.
func (b *graphBench) replay(ctx context.Context, tr *tracer) error {
	if b.res.Hit {
		return nil // a hit runs no stage
	}
	st, rep := b.stack, b.res.Report
	s := tr.begin(lAnalyze)
	_, err := st.an.Analyze(ctx, b.g)
	tr.end(s)
	if err != nil {
		return err
	}

	s = tr.beginStage(lReduce)
	work := b.g.Clone()
	removed, err := work.TransitiveReduction()
	tr.endCount(s, int64(removed))
	if err != nil {
		return err
	}
	var mt *hetrta.MultiTransformation
	if len(work.OffloadNodes()) > 0 {
		s = tr.withAlloc(tr.beginStage(lTransform))
		mt, err = hetrta.TransformAll(work)
		if err != nil {
			return err
		}
		tr.endCount(s, int64(len(mt.Steps)))
	}
	in := hetrta.BoundInput{Graph: work, Platform: st.plat, Multi: mt}
	if mt != nil && len(mt.Steps) == 1 {
		in.Transform = mt.Steps[0]
	}
	for _, bd := range st.bounds {
		s = tr.beginStage(lBound)
		_, err := bd.Compute(ctx, in)
		tr.end(s)
		if err != nil {
			return err
		}
	}
	if st.exact { // the -sim -exact wiring
		s = tr.beginStage(lSimulate)
		_, err := hetrta.Simulate(work, st.plat, hetrta.BreadthFirst())
		if err == nil && mt != nil {
			_, err = hetrta.Simulate(mt.Transformed, st.plat, hetrta.BreadthFirst())
		}
		tr.end(s)
		if err != nil {
			return err
		}
		if served := rep.Exact; served != nil {
			s = tr.beginStage(lExact)
			r, err := hetrta.MinMakespanContext(ctx, work, st.plat, st.exactOpts)
			if err != nil {
				return err
			}
			tr.endCount(s, r.Expansions)
			tr.exactOps++
			if served.Status == "optimal" {
				tr.exactOptimal++
			}
			if hi := max(r.Expansions, served.Expansions); hi > 0 {
				tr.spreadSum += math.Abs(float64(r.Expansions-served.Expansions)) / float64(hi)
			}
		}
	}
	s = tr.beginStage(lMarshal)
	body, err := json.Marshal(rep)
	tr.end(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, b.res.Body) {
		return errors.New("re-marshaled report differs from the served body")
	}
	return nil
}

func (b *graphBench) finish(context.Context) (int, error) { return 0, nil }
