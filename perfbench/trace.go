package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"runtime/metrics"
	"slices"
	"time"
)

// layer names one traced call boundary; the names are the repository's
// modules, so per-layer metrics read as "<module>.<quantity>".
type layer uint8

const (
	lOp          layer = iota // one plan op, the root of its spans
	lDecode                   // json.Unmarshal of the wire input (dag)
	lFingerprint              // Graph.Fingerprint / SporadicTask.Digest (dag)
	lCall                     // the Service method the op is about (service)
	lReduce                   // Graph.Clone + TransitiveReduction (dag)
	lTransform                // transform.All, iterated Algorithm 1
	lBound                    // one Bound.Compute (rta)
	lSimulate                 // sched.Simulate
	lExact                    // exact.MinMakespan
	lMarshal                  // Report / AdmitReport JSON (hetrta)
	lPrepareEval              // TasksetAnalyzer.PrepareTaskEval (taskset)
	lAdmit                    // TasksetAnalyzer.AdmitPrepared (taskset)
	lAnalyze                  // Analyzer.Analyze end to end (hetrta)
	nLayers
)

var layerNames = [nLayers]string{
	"op", "dag.decode", "dag.fingerprint", "service.call", "dag.reduce",
	"transform.all", "rta.bounds", "sched.simulate", "exact.solve",
	"hetrta.marshal", "taskset.prepare_eval", "taskset.admit", "hetrta.analyze",
}

// ladder is the order in which the attribution table explains one op:
// what the client does before the call, then the layers the call runs,
// then what is left of the call (service.self).
var ladder = []layer{lDecode, lFingerprint, lReduce, lTransform, lBound, lSimulate, lExact, lPrepareEval, lAdmit, lMarshal}

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch.
type span struct {
	start, end int64
	alloc      int64 // heap bytes allocated inside; valid when allocOn
	count      int64 // layer-specific work count (edges removed, steps, expansions)
	op         int32
	parent     int32 // index of the parent span; -1 for an op's root
	layer      layer
	allocOn    bool
	// beside marks a replayed stage: it ran after its parent, outside the
	// parent's interval, repeating work the parent did inside it. Its
	// whole duration is part of the parent's time, not of its self time.
	beside bool
}

// tracer records spans in memory for the traced run. Every method is a
// no-op on a nil tracer, which is how the untraced run calls them.
type tracer struct {
	epoch  time.Time
	spans  []span
	op     int32
	root   int32
	call   int32
	allocs [1]metrics.Sample

	// Exact-oracle outcomes the replay compares against the served report.
	exactOps, exactOptimal int
	spreadSum              float64
}

func newTracer(capacity int) *tracer {
	t := &tracer{epoch: time.Now(), spans: make([]span, 0, capacity), root: -1, call: -1}
	t.allocs[0].Name = mAllocBytes
	return t
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) push(l layer, parent int32, beside bool) int32 {
	t.spans = append(t.spans, span{start: t.now(), op: t.op, parent: parent, layer: l, beside: beside})
	return int32(len(t.spans) - 1)
}

// beginOp opens the root span of plan op i.
func (t *tracer) beginOp(i int) {
	if t == nil {
		return
	}
	t.op = int32(i)
	t.root = t.push(lOp, -1, false)
	t.call = -1
}

// endOp closes the current op.
func (t *tracer) endOp() {
	if t == nil {
		return
	}
	t.spans[t.root].end = t.now()
	t.root, t.call = -1, -1
}

// begin opens a span under the current op. A service.call span becomes
// the parent of the replayed stages that follow it.
func (t *tracer) begin(l layer) int32 {
	if t == nil {
		return -1
	}
	id := t.push(l, t.root, false)
	if l == lCall {
		t.call = id
	}
	return id
}

// beginStage opens a replayed stage of the current op's service call.
func (t *tracer) beginStage(l layer) int32 {
	if t == nil {
		return -1
	}
	if t.call < 0 {
		return t.push(l, t.root, false)
	}
	return t.push(l, t.call, true)
}

// withAlloc makes the span just opened also count the heap bytes
// allocated inside it. Its clock restarts after the counter is read.
func (t *tracer) withAlloc(id int32) int32 {
	if t == nil {
		return id
	}
	metrics.Read(t.allocs[:])
	sp := &t.spans[id]
	sp.allocOn = true
	sp.alloc = int64(t.allocs[0].Value.Uint64())
	sp.start = t.now()
	return id
}

// end closes a span.
func (t *tracer) end(id int32) {
	if t == nil {
		return
	}
	sp := &t.spans[id]
	sp.end = t.now()
	if sp.allocOn {
		metrics.Read(t.allocs[:])
		sp.alloc = int64(t.allocs[0].Value.Uint64()) - sp.alloc
	}
}

// endCount closes a span with a work count.
func (t *tracer) endCount(id int32, n int64) {
	if t == nil {
		return
	}
	t.end(id)
	t.spans[id].count = n
}

// selfTimes returns each span's duration minus the durations of its
// children. A tracer opens the spans of one op one after another, so the
// children of a span never overlap; a beside child is subtracted whole
// although it ran after its parent, because it repeats work done inside.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, sp := range spans {
		d := sp.end - sp.start
		self[i] += d
		if sp.parent >= 0 {
			self[sp.parent] -= d
		}
	}
	return self
}

// opTotals is one op's per-layer sums.
type opTotals struct {
	has   [nLayers]bool
	dur   [nLayers]int64 // summed span durations
	self  [nLayers]int64 // summed self times
	alloc [nLayers]int64
	spans [nLayers]int64
	count [nLayers]int64
	// region is the client-visible part of the traced op: from the start
	// of its first span to the end of its service call, the same interval
	// the untraced run times.
	region int64
}

// perOp folds the spans into per-op totals, in op order.
func perOp(spans []span) []opTotals {
	self := selfTimes(spans)
	var out []opTotals
	var cur *opTotals
	var regionStart int64
	for i, sp := range spans {
		if sp.layer == lOp {
			out = append(out, opTotals{})
			cur = &out[len(out)-1]
			regionStart = -1
			continue
		}
		if cur == nil {
			continue
		}
		l := sp.layer
		cur.has[l] = true
		cur.dur[l] += sp.end - sp.start
		cur.self[l] += self[i]
		cur.spans[l]++
		cur.count[l] += sp.count
		if sp.allocOn {
			cur.alloc[l] += sp.alloc
		}
		if regionStart < 0 && !sp.beside {
			regionStart = sp.start
		}
		if l == lCall {
			cur.region = sp.end - regionStart
		}
	}
	return out
}

// layerStats summarizes one layer over the ops that ran it.
type layerStats struct {
	ops        int     // ops with at least one span of the layer
	medianDur  float64 // median per-op duration, ns
	medianSelf float64 // median per-op self time, ns
	meanAlloc  float64 // mean heap bytes allocated per op
	meanCount  float64 // mean work count per span
	sumDur     int64   // ns over all ops
	sumCount   int64
	// allOpsSelf is the median per-op self time over every op, counting 0
	// where the layer did not run: the attribution table's figure.
	allOpsSelf float64
}

func summarizeLayer(ops []opTotals, l layer) layerStats {
	var dur, self, all []int64
	var alloc, count, spans, sumDur int64
	for i := range ops {
		o := &ops[i]
		all = append(all, o.self[l])
		if !o.has[l] {
			continue
		}
		dur = append(dur, o.dur[l])
		sumDur += o.dur[l]
		self = append(self, o.self[l])
		alloc += o.alloc[l]
		count += o.count[l]
		spans += o.spans[l]
	}
	st := layerStats{ops: len(dur), medianDur: medianInt(dur), medianSelf: medianInt(self), allOpsSelf: medianInt(all), sumDur: sumDur, sumCount: count}
	if st.ops > 0 {
		st.meanAlloc = float64(alloc) / float64(st.ops)
		st.meanCount = float64(count) / float64(spans)
	}
	return st
}

// attribution is the traced run's account of the untraced op latency.
type attribution struct {
	rows        []attributionRow
	sum         float64 // Σ row medians, µs
	untracedP50 float64 // µs
	tracedP50   float64 // µs, the same interval timed in the traced run
	residual    float64 // untracedP50 − sum
	overhead    float64 // tracedP50 − untracedP50
}

type attributionRow struct {
	name string
	us   float64
}

func attribute(ops []opTotals, untracedP50us float64) attribution {
	a := attribution{untracedP50: untracedP50us}
	for _, l := range append(slices.Clone(ladder), lCall) {
		st := summarizeLayer(ops, l)
		if st.ops == 0 {
			continue
		}
		name := layerNames[l]
		if l == lCall {
			name = "service.self"
		}
		a.rows = append(a.rows, attributionRow{name, st.allOpsSelf / 1e3})
		a.sum += st.allOpsSelf / 1e3
	}
	region := make([]int64, len(ops))
	for i := range ops {
		region[i] = ops[i].region
	}
	a.tracedP50 = medianInt(region) / 1e3
	a.residual = a.untracedP50 - a.sum
	a.overhead = a.tracedP50 - a.untracedP50
	return a
}

func (a attribution) write(w io.Writer, workload string) {
	fmt.Fprintf(w, "attribution of latency_p50_us on %s (per-op self-time medians, 0 where a layer did not run):\n", workload)
	for _, r := range a.rows {
		fmt.Fprintf(w, "  %-22s %10.2f us  %5.1f%%\n", r.name, r.us, 100*r.us/a.untracedP50)
	}
	fmt.Fprintf(w, "  %-22s %10.2f us\n", "sum of layers", a.sum)
	fmt.Fprintf(w, "  %-22s %10.2f us  (untraced run)\n", "latency_p50_us", a.untracedP50)
	fmt.Fprintf(w, "  %-22s %10.2f us  %5.1f%%\n", "residual", a.residual, 100*a.residual/a.untracedP50)
	fmt.Fprintf(w, "  %-22s %10.2f us  (traced p50 %.2f us minus untraced p50)\n", "tracing overhead", a.overhead, a.tracedP50)
}

// writeSpans writes every span as one tab-separated line: op, index,
// parent, layer, start and end in ns, allocated bytes and work count.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op\tspan\tparent\tname\tstart_ns\tend_ns\talloc_bytes\tcount")
	for i, sp := range t.spans {
		alloc := int64(-1)
		if sp.allocOn {
			alloc = sp.alloc
		}
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\n", sp.op, i, sp.parent, layerNames[sp.layer], sp.start, sp.end, alloc, sp.count)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
