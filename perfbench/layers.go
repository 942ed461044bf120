package main

// layerMetrics computes the per-layer metrics of a traced run. Span times
// come from the traced phase (ops); counters of the service, its store,
// the overload layer and the Go runtime come from the untraced phase
// (plain), which ran the same plan without the replay's extra work. A
// layer that did no work on the workload reads 0.
func layerMetrics(ops []opTotals, tr *tracer, plain *phase, att attribution, b *base) map[string]metric {
	m := map[string]metric{}
	us := func(name string, ns float64) { m[name] = metric{ns / 1e3, "us"} }
	kb := func(name string, bytes float64) { m[name] = metric{bytes / 1024, "KB"} }
	count := func(name string, v float64) { m[name] = metric{v, "count"} }
	ratio := func(name string, num, den float64) {
		v := 0.0
		if den > 0 {
			v = num / den
		}
		m[name] = metric{v, "ratio"}
	}
	n := float64(plain.ops)
	perOpRate := func(name string, v float64) { m[name] = metric{v / n, "1/op"} }

	decode := summarizeLayer(ops, lDecode)
	us("dag.decode_us", decode.medianDur)
	kb("dag.decode_alloc_kb", decode.meanAlloc)
	us("dag.fingerprint_us", summarizeLayer(ops, lFingerprint).medianDur)
	reduce := summarizeLayer(ops, lReduce)
	us("dag.reduce_us", reduce.medianDur)
	count("dag.reduced_edges", reduce.meanCount)

	tf := summarizeLayer(ops, lTransform)
	us("transform.all_us", tf.medianDur)
	kb("transform.all_alloc_kb", tf.meanAlloc)
	count("transform.steps", tf.meanCount)

	us("rta.bounds_us", summarizeLayer(ops, lBound).medianDur)
	us("sched.simulate_us", summarizeLayer(ops, lSimulate).medianDur)

	ex := summarizeLayer(ops, lExact)
	us("exact.solve_us", ex.medianDur)
	count("exact.expansions", ex.meanCount)
	m["exact.expansions_per_ms"] = metric{0, "1/ms"}
	if ex.sumDur > 0 {
		m["exact.expansions_per_ms"] = metric{float64(ex.sumCount) / (float64(ex.sumDur) / 1e6), "1/ms"}
	}
	ratio("exact.optimal_share", float64(tr.exactOptimal), float64(tr.exactOps))
	ratio("exact.expansions_spread", tr.spreadSum, float64(tr.exactOps))

	us("hetrta.analyze_us", summarizeLayer(ops, lAnalyze).medianDur)
	us("hetrta.marshal_us", summarizeLayer(ops, lMarshal).medianDur)
	m["hetrta.body_kb"] = metric{0, "KB"}
	if b.bodies > 0 {
		kb("hetrta.body_kb", float64(b.bodyBytes)/float64(b.bodies))
	}

	us("taskset.prepare_eval_us", summarizeLayer(ops, lPrepareEval).medianDur)
	us("taskset.admit_us", summarizeLayer(ops, lAdmit).medianDur)
	s0, s1 := plain.st0, plain.st1
	evalHits, evalMisses := float64(s1.EvalHits-s0.EvalHits), float64(s1.EvalMisses-s0.EvalMisses)
	ratio("taskset.eval_reuse_ratio", evalHits, evalHits+evalMisses)

	call := summarizeLayer(ops, lCall)
	us("service.call_us", call.medianDur)
	us("service.self_us", call.medianSelf)
	hits, misses := float64(s1.Hits-s0.Hits), float64(s1.Misses-s0.Misses)
	ratio("service.hit_ratio", hits, hits+misses)
	perOpRate("service.executions", float64(s1.Executions-s0.Executions))
	perOpRate("service.evictions", float64(s1.Evictions-s0.Evictions))
	perOpRate("service.degraded", float64(s1.Degraded-s0.Degraded))

	count("store.records_loaded", 0)
	perOpRate("store.appends", 0)
	m["store.bytes"] = metric{0, "KB/op"}
	count("store.dropped", 0)
	if s0.Store != nil && s1.Store != nil {
		count("store.records_loaded", float64(s1.Store.RecordsLoaded))
		perOpRate("store.appends", float64(s1.Store.Appends-s0.Store.Appends))
		m["store.bytes"] = metric{float64(s1.Store.SizeBytes-s0.Store.SizeBytes) / 1024 / n, "KB/op"}
		count("store.dropped", float64(s1.Store.Dropped-s0.Store.Dropped))
	}

	count("resilience.breaker_rejected", 0)
	count("resilience.shed", 0)
	if s0.Breaker != nil && s1.Breaker != nil {
		count("resilience.breaker_rejected", float64(s1.Breaker.Rejected-s0.Breaker.Rejected))
	}
	if s0.Overload != nil && s1.Overload != nil {
		count("resilience.shed", float64(s1.Overload.Shed-s0.Overload.Shed))
	}

	r0, r1 := plain.rt0, plain.rt1
	ratio("runtime.gc_cpu_share", r1.gcCPU-r0.gcCPU, r1.totalCPU-r0.totalCPU)
	m["runtime.gc_cycles_per_kop"] = metric{float64(r1.gcCycles-r0.gcCycles) * 1000 / n, "1/kop"}
	m["runtime.heap_peak_mb"] = metric{float64(plain.heapPeak) / (1 << 20), "MB"}

	us("trace.untraced_p50_us", att.untracedP50*1e3)
	// The p99 is reported here, unbounded, rather than as an end-to-end
	// metric: on the VM the benchmark was tuned on it moves with the
	// host's load far beyond any bound a gate could use (README.md).
	us("trace.untraced_p99_us", float64(percentile(plain.sorted, 99)))
	us("trace.traced_p50_us", att.tracedP50*1e3)
	us("trace.overhead_us", att.overhead*1e3)
	us("trace.residual_us", att.residual*1e3)
	return m
}
