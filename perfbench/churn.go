package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math/rand"

	hetrta "repro"
	"repro/internal/service"
	"repro/internal/taskgen"
	"repro/internal/taskset"
)

// Sizes of admit-churn at scale 1. The chain's events get dearer as it
// grows (see README.md), so the timed phase always runs the whole plan:
// parent and change then time the same events.
const (
	churnResident = 32   // tasks in the resident set, as in DefaultChurn
	churnPool     = 1024 // distinct graphs new tasks are drawn from
	churnWarm     = 2048 // chain events walked in set-up
	churnPlan     = 6144
	// Every third event re-sends the one before it, as cmd/dagrtaload
	// repeats every third delta: a cache hit that leaves the set as is.
	churnRepeatEvery = 3
	churnSamples     = 16 // timed events re-checked against a full Admit
	// churnMirror bounds the resulting sets a traced run keeps to replay
	// admissions against; each event's base is the latest of them.
	churnMirror = 4
)

// Wire shapes of /v1/admit and /v1/admit/delta, as cmd/dagrtad reads them.
type wireTask struct {
	Graph    json.RawMessage `json:"graph"`
	Period   int64           `json:"period"`
	Deadline int64           `json:"deadline"`
	Jitter   int64           `json:"jitter,omitempty"`
}

type wireAdmit struct {
	Tasks []wireTask `json:"tasks"`
}

type wireDelta struct {
	Base   string       `json:"base"`
	Add    []wireTask   `json:"add,omitempty"`
	Remove []string     `json:"remove,omitempty"`
	Update []wireUpdate `json:"update,omitempty"`
}

type wireUpdate struct {
	Old  string   `json:"old"`
	Task wireTask `json:"task"`
}

// churnEvent is one AdmitDelta request of the chain.
type churnEvent struct {
	input  int32                     // index of its body
	kind   churnKind                 // what the event does to the set
	repeat bool                      // re-sends the previous event: a cache hit
	result hetrta.TasksetFingerprint // fingerprint of the resulting set
}

// churnKind is what a fresh event does. Fresh events take turns:
// DefaultChurn's alternating arrivals and departures, plus an update (a
// departure and an arrival in one event) as a third turn, so the set
// stays at 32 or 33 tasks.
type churnKind uint8

const (
	arrival churnKind = iota
	departure
	update
	nKinds
)

// churnBench is admit-churn: one resident set of 32 tasks and one chain of
// delta admissions, each applied to the previous event's result.
type churnBench struct {
	base
	scale float64

	resident   []byte // /v1/admit body of the initial resident set
	residentFP hetrta.TasksetFingerprint
	inputs     [][]byte     // /v1/admit/delta bodies, each distinct event once
	events     []churnEvent // churnWarm warm-up events, then the timed plan
	warm       int
	samples    map[int]int // timed op → index of its resulting set in sampleSets
	sampleSets [][]byte    // /v1/admit bodies of the sampled resulting sets
	served     [][]byte    // bodies the sampled ops were served, by sample

	ev     int // the op just run
	baseFP hetrta.TasksetFingerprint
	delta  hetrta.TasksetDelta
	res    *service.AdmitResult

	// Traced runs keep a mirror of the resulting sets, per-task evaluation
	// handles and a step memo, to replay each admission on its own.
	ta     *hetrta.TasksetAnalyzer
	steps  *hetrta.GlobalStepCache
	mirror map[hetrta.TasksetFingerprint]mirrorSet
	order  []hetrta.TasksetFingerprint
	// remembered counts sets added to the mirror, to prune evals now and then.
	remembered int
	evals      map[hetrta.TaskDigest]*hetrta.TaskEvalHandle
}

type mirrorSet struct {
	ts hetrta.Taskset
	ds []hetrta.TaskDigest
}

func newChurnBench(scale float64) *churnBench {
	c := &churnBench{scale: scale}
	c.deterministic = true
	return c
}

func (c *churnBench) planLen() int { return len(c.events) - c.warm }

func (c *churnBench) wholePlan() bool { return true }

// member is one resident task as the generator tracks it.
type member struct {
	t     hetrta.SporadicTask
	d     hetrta.TaskDigest
	graph json.RawMessage
}

func (m member) wire() wireTask {
	return wireTask{Graph: m.graph, Period: m.t.Period, Deadline: m.t.Deadline, Jitter: m.t.Jitter}
}

func fingerprintOf(set []member) hetrta.TasksetFingerprint {
	ds := make([]hetrta.TaskDigest, len(set))
	for i, m := range set {
		ds[i] = m.d
	}
	return hetrta.TasksetFingerprintOfDigests(ds)
}

func admitBody(set []member) ([]byte, error) {
	req := wireAdmit{Tasks: make([]wireTask, len(set))}
	for i, m := range set {
		req.Tasks[i] = m.wire()
	}
	return json.Marshal(req)
}

func (c *churnBench) generate(seed int64, _ string, h hash.Hash) error {
	r := rand.New(rand.NewSource(seed))
	params := taskgen.Small(10, 30)
	// DefaultChurn's resident set: unit utilization, a quarter of the tasks
	// offloading 30% of their volume, implicit deadlines.
	init, err := taskset.Generate(taskset.TasksetParams{
		N: churnResident, Util: 1, OffloadShare: 0.25, COffFrac: 0.3, Params: params,
	}, seed)
	if err != nil {
		return err
	}
	cur := make([]member, len(init.Tasks))
	for i, t := range init.Tasks {
		g, err := json.Marshal(t.G)
		if err != nil {
			return err
		}
		cur[i] = member{t: t, d: t.Digest(), graph: g}
	}
	if c.resident, err = admitBody(cur); err != nil {
		return err
	}
	c.residentFP = fingerprintOf(cur)
	seen := map[hetrta.TasksetFingerprint]bool{c.residentFP: true}

	gen, err := taskgen.New(params, seed+1)
	if err != nil {
		return err
	}
	pool := make([]member, scaled(churnPool, c.scale))
	for k := range pool {
		g, err := gen.Graph()
		if err != nil {
			return err
		}
		if k%4 == 0 {
			taskgen.SetOffloadClass(g, gen.Intn(g.NumNodes()), 0.3, 1)
		}
		data, err := json.Marshal(g)
		if err != nil {
			return err
		}
		pool[k] = member{t: hetrta.SporadicTask{G: g}, graph: data}
	}
	// A new task is a pool graph with a fresh utilization around 1/32.
	newTask := func() member {
		m := pool[r.Intn(len(pool))]
		m.t = taskset.SporadicFromUtilization(m.t.G, (0.5+r.Float64())/churnResident, 0, 0)
		m.d = m.t.Digest()
		return m
	}

	c.warm = scaled(churnWarm, c.scale)
	plan := scaled(churnPlan, c.scale)
	sampled := map[int]bool{}
	for _, k := range r.Perm(plan)[:min(churnSamples, plan)] {
		sampled[c.warm+k] = true
	}
	c.samples = map[int]int{}
	curFP, fresh := c.residentFP, 0
	for e := 0; e < c.warm+plan; e++ {
		if e%churnRepeatEvery == churnRepeatEvery-1 {
			prev := c.events[e-1]
			prev.repeat = true
			c.events = append(c.events, prev)
		} else {
			kind := churnKind(fresh % int(nKinds))
			fresh++
			var req wireDelta
			var next []member
			var nextFP hetrta.TasksetFingerprint
			for {
				req = wireDelta{Base: curFP.String()}
				next = append([]member(nil), cur...)
				k := r.Intn(len(next))
				switch kind {
				case arrival:
					m := newTask()
					req.Add = []wireTask{m.wire()}
					next = append(next, m)
				case departure:
					req.Remove = []string{next[k].d.String()}
					next = append(next[:k], next[k+1:]...)
				case update:
					m := newTask()
					req.Update = []wireUpdate{{Old: next[k].d.String(), Task: m.wire()}}
					next[k] = m
				}
				// A fresh event must lead to a set never admitted before,
				// or it would be a cache hit the plan does not expect.
				if nextFP = fingerprintOf(next); !seen[nextFP] {
					break
				}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return err
			}
			seen[nextFP] = true
			c.inputs = append(c.inputs, body)
			c.events = append(c.events, churnEvent{input: int32(len(c.inputs) - 1), kind: kind, result: nextFP})
			cur, curFP = next, nextFP
		}
		if sampled[e] {
			body, err := admitBody(cur)
			if err != nil {
				return err
			}
			c.samples[e-c.warm] = len(c.sampleSets)
			c.sampleSets = append(c.sampleSets, body)
		}
	}

	for _, in := range append(append([][]byte{c.resident}, c.inputs...), c.sampleSets...) {
		binary.Write(h, binary.LittleEndian, int64(len(in)))
		h.Write(in)
	}
	for _, ev := range c.events {
		binary.Write(h, binary.LittleEndian, ev.input)
	}
	return nil
}

// mix describes the timed plan: the share of each kind of event.
func (c *churnBench) mix() string {
	var n [nKinds]int
	repeats := 0
	plan := c.events[c.warm:]
	for _, ev := range plan {
		if ev.repeat {
			repeats++
		} else {
			n[ev.kind]++
		}
	}
	pct := func(k int) float64 { return 100 * float64(k) / float64(len(plan)) }
	return fmt.Sprintf("one chain of %d events after %d in set-up: arrivals %.1f%%, departures %.1f%%, updates %.1f%%, repeats of the previous event %.1f%%",
		len(plan), c.warm, pct(n[arrival]), pct(n[departure]), pct(n[update]), pct(repeats))
}

// decodeAdmit parses a /v1/admit body as the daemon does.
func decodeAdmit(body []byte) (hetrta.Taskset, error) {
	var req wireAdmit
	if err := json.Unmarshal(body, &req); err != nil {
		return hetrta.Taskset{}, err
	}
	ts := hetrta.Taskset{Tasks: make([]hetrta.SporadicTask, len(req.Tasks))}
	for i, tk := range req.Tasks {
		t, err := decodeTask(tk)
		if err != nil {
			return hetrta.Taskset{}, fmt.Errorf("task %d: %w", i, err)
		}
		ts.Tasks[i] = t
	}
	return ts, nil
}

func decodeTask(tk wireTask) (hetrta.SporadicTask, error) {
	g := hetrta.NewGraph()
	if err := json.Unmarshal(tk.Graph, g); err != nil {
		return hetrta.SporadicTask{}, err
	}
	return hetrta.SporadicTask{G: g, Period: tk.Period, Deadline: tk.Deadline, Jitter: tk.Jitter}, nil
}

// decodeDelta parses a /v1/admit/delta body as the daemon does.
func decodeDelta(body []byte) (hetrta.TasksetFingerprint, hetrta.TasksetDelta, error) {
	var req wireDelta
	var delta hetrta.TasksetDelta
	if err := json.Unmarshal(body, &req); err != nil {
		return hetrta.TasksetFingerprint{}, delta, err
	}
	base, err := hetrta.ParseTasksetFingerprint(req.Base)
	if err != nil {
		return base, delta, err
	}
	for _, tk := range req.Add {
		t, err := decodeTask(tk)
		if err != nil {
			return base, delta, err
		}
		delta.Add = append(delta.Add, t)
	}
	for _, s := range req.Remove {
		dg, err := hetrta.ParseTaskDigest(s)
		if err != nil {
			return base, delta, err
		}
		delta.Remove = append(delta.Remove, dg)
	}
	for _, u := range req.Update {
		dg, err := hetrta.ParseTaskDigest(u.Old)
		if err != nil {
			return base, delta, err
		}
		t, err := decodeTask(u.Task)
		if err != nil {
			return base, delta, err
		}
		delta.Update = append(delta.Update, hetrta.TaskDeltaUpdate{Old: dg, Task: t})
	}
	return base, delta, nil
}

func (c *churnBench) setUp(ctx context.Context, _ string, traced bool) error {
	st, err := newStack(false, 0)
	if err != nil {
		return err
	}
	c.stack = st
	c.served = make([][]byte, len(c.sampleSets))
	if traced {
		if c.ta, err = hetrta.NewTasksetAnalyzer(st.an); err != nil {
			return err
		}
		c.steps = hetrta.NewGlobalStepCache(service.DefaultCacheEntries)
		c.mirror = map[hetrta.TasksetFingerprint]mirrorSet{}
		c.order = nil
		c.evals = map[hetrta.TaskDigest]*hetrta.TaskEvalHandle{}
	}
	ts, err := decodeAdmit(c.resident)
	if err != nil {
		return err
	}
	res, err := c.svc().Admit(ctx, ts)
	if err != nil {
		return err
	}
	if res.Hit || res.Fingerprint != c.residentFP {
		return fmt.Errorf("resident set admitted as %s (hit %t), want a fresh %s", res.Fingerprint, res.Hit, c.residentFP)
	}
	if traced {
		canon, ds := ts.CanonicalWithDigests()
		for i, d := range ds {
			if c.evals[d], err = c.ta.PrepareTaskEval(canon.Tasks[i].G); err != nil {
				return err
			}
		}
		c.remember(res.Fingerprint, canon, ds)
	}
	for e := 0; e < c.warm; e++ {
		if err := c.execEvent(ctx, e, nil); err != nil {
			return fmt.Errorf("warm-up event %d: %w", e, err)
		}
		if err := c.check(); err != nil {
			return fmt.Errorf("warm-up event %d: %w", e, err)
		}
		if traced {
			if err := c.replay(ctx, nil); err != nil {
				return fmt.Errorf("warm-up event %d: %w", e, err)
			}
		}
	}
	return nil
}

func (c *churnBench) exec(ctx context.Context, i int, tr *tracer) error {
	return c.execEvent(ctx, c.warm+i, tr)
}

// execEvent decodes event e's body and admits it: what the daemon's
// /v1/admit/delta handler does between reading the body and writing the
// response. The traced op hashes the new tasks in a span of its own first.
func (c *churnBench) execEvent(ctx context.Context, e int, tr *tracer) error {
	c.ev, c.res = e, nil
	s := tr.withAlloc(tr.begin(lDecode))
	base, delta, err := decodeDelta(c.inputs[c.events[e].input])
	tr.end(s)
	if err != nil {
		return fmt.Errorf("decoding event %d: %w", e, err)
	}
	if tr != nil && len(delta.Add)+len(delta.Update) > 0 {
		s = tr.begin(lFingerprint)
		for _, t := range delta.Add {
			t.Digest()
		}
		for _, u := range delta.Update {
			u.Task.Digest()
		}
		tr.end(s)
	}
	s = tr.begin(lCall)
	res, err := c.svc().AdmitDelta(ctx, base, delta)
	tr.end(s)
	c.baseFP, c.delta, c.res = base, delta, res
	return err
}

func (c *churnBench) verify(i int) error {
	c.noteBody(c.res.Body)
	if k, ok := c.samples[i]; ok {
		c.served[k] = c.res.Body
	}
	return c.check()
}

// check validates the event just admitted against what generation
// recorded for it.
func (c *churnBench) check() error {
	ev := c.events[c.ev]
	switch {
	case c.res.Hit != ev.repeat:
		return fmt.Errorf("cache hit %t, want %t", c.res.Hit, ev.repeat)
	case c.res.Fingerprint != ev.result:
		return fmt.Errorf("resulting set %s, want %s", c.res.Fingerprint, ev.result)
	case len(c.res.Body) == 0:
		return errors.New("empty admit report")
	}
	return nil
}

// replay applies the delta to the mirrored base and re-runs, span by
// span, the admission the service ran: preparing the new tasks and
// admitting the resulting set over warm handles and the step memo. The
// replayed report must be byte-identical to the served one.
func (c *churnBench) replay(ctx context.Context, tr *tracer) error {
	if c.res.Hit {
		return nil // a repeat runs no stage
	}
	m, ok := c.mirror[c.baseFP]
	if !ok {
		return fmt.Errorf("base %s fell out of the mirror", c.baseFP)
	}
	ts, ds, err := m.ts.ApplyDeltaDigests(m.ds, c.delta)
	if err != nil {
		return err
	}
	ts, ds = ts.CanonicalWithGivenDigests(ds)
	var fresh []int
	for i, d := range ds {
		if _, ok := c.evals[d]; !ok {
			fresh = append(fresh, i)
		}
	}
	if len(fresh) > 0 {
		s := tr.beginStage(lPrepareEval)
		for _, i := range fresh {
			if c.evals[ds[i]], err = c.ta.PrepareTaskEval(ts.Tasks[i].G); err != nil {
				return err
			}
		}
		tr.end(s)
	}
	s := tr.beginStage(lAdmit)
	rep, err := c.ta.AdmitPrepared(ctx, ts, ds, c.evalOf, c.steps)
	tr.end(s)
	if err != nil {
		return err
	}
	s = tr.beginStage(lMarshal)
	body, err := rep.MarshalJSON()
	tr.end(s)
	if err != nil {
		return err
	}
	if !bytes.Equal(body, c.res.Body) {
		return errors.New("replayed admission differs from the served body")
	}
	c.remember(c.res.Fingerprint, ts, ds)
	return nil
}

func (c *churnBench) evalOf(_ context.Context, t hetrta.SporadicTask, d hetrta.TaskDigest) (*hetrta.TaskEvalHandle, error) {
	if h, ok := c.evals[d]; ok {
		return h, nil
	}
	return c.ta.PrepareTaskEval(t.G)
}

// remember adds a resulting set to the mirror, dropping the oldest beyond
// churnMirror and, now and then, the handles of tasks no mirrored set
// holds any more.
func (c *churnBench) remember(fp hetrta.TasksetFingerprint, ts hetrta.Taskset, ds []hetrta.TaskDigest) {
	c.mirror[fp] = mirrorSet{ts, ds}
	c.order = append(c.order, fp)
	if len(c.order) > churnMirror {
		delete(c.mirror, c.order[0])
		c.order = c.order[1:]
	}
	if c.remembered++; c.remembered%churnMirror != 0 {
		return
	}
	live := map[hetrta.TaskDigest]bool{}
	for _, fp := range c.order {
		for _, d := range c.mirror[fp].ds {
			live[d] = true
		}
	}
	for d := range c.evals {
		if !live[d] {
			delete(c.evals, d)
		}
	}
}

// finish admits every sampled resulting set in full on a fresh service and
// compares the report with the body the delta path served for it.
func (c *churnBench) finish(ctx context.Context) (int, error) {
	failed := 0
	for k, served := range c.served {
		if served == nil {
			continue // the op failed before it was served
		}
		st, err := newStack(false, 0)
		if err != nil {
			return 0, err
		}
		ts, err := decodeAdmit(c.sampleSets[k])
		if err != nil {
			return 0, err
		}
		res, err := st.svc.Admit(ctx, ts)
		if err != nil || !bytes.Equal(res.Body, served) {
			failed++
		}
	}
	return failed, nil
}
