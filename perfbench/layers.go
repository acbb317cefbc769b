package main

// layerInputs are the per-layer figures a traced run takes from
// outside the span tracer.
type layerInputs struct {
	overlay   string // "chord" or "kademlia"
	transport string // "simnet", "sim" or "wire"
	nhatOverN float64

	kernelEvents    float64 // sim: Kernel.Processed over the traced runs
	wireAllocs      float64 // wire: heap allocations per remote call, untraced
	wireBytes       float64 // wire: heap bytes per remote call, untraced
	wireRetries     float64 // wire: retry attempts in the traced run
	churnStepErrors float64

	plainRate, tracedRate float64 // samples_per_s untraced and traced
}

// addLayerMetrics reports every per-layer metric from a traced run's
// totals. Per-sample figures divide by the sample roots: closed-loop
// samples, or kademlia-churn requests (a request's retry included).
func addLayerMetrics(res *result, tt totals, in layerInputs) {
	s := float64(tt.samples)
	per := func(v float64) float64 { return ratio(v, s) }
	sm := &tt.stats[kSample]
	h, next := sm[kH], sm[kNext]

	res.add("core.self_us_per_sample", "us", per(float64(sm[kSample].self))/1e3)
	res.add("core.trials_per_sample", "trials", per(float64(h.n)))
	res.add("core.steps_per_sample", "steps", per(float64(tt.steps)))
	res.add("core.dead_steps_frac", "ratio", ratio(float64(tt.dead), float64(tt.steps)))
	res.add("core.nhat_over_n", "ratio", in.nhatOverN)
	est := tt.stats[kEstimate][kEstimate]
	res.add("core.estimate_ms", "ms", ratio(float64(est.busy), float64(est.n))/1e6)

	rpcs := func(parent kind) float64 {
		return float64(tt.edges[parent][kCall] + tt.edges[parent][kRemote])
	}
	res.add("dht.h_us", "us", ratio(float64(h.busy), float64(h.n))/1e3)
	res.add("dht.next_us", "us", ratio(float64(next.busy), float64(next.n))/1e3)
	res.add("dht.h_calls_per_sample", "calls", per(float64(h.n)))
	res.add("dht.next_calls_per_sample", "calls", per(float64(next.n)))
	res.add("dht.rpcs_per_h", "rpcs", ratio(rpcs(kH), float64(h.n)))
	res.add("dht.rpcs_per_next", "rpcs", ratio(rpcs(kNext), float64(next.n)))
	res.add("dht.self_us_per_sample", "us", per(float64(h.self+next.self))/1e3)
	res.add("dht.h_errors", "count", float64(h.errs))
	res.add("dht.next_errors", "count", float64(next.errs))

	handler := tt.kindStat(kHandler)
	for _, ov := range []string{"chord", "kademlia"} {
		var ns, calls float64
		if ov == in.overlay {
			ns = ratio(float64(handler.self), float64(handler.n))
			calls = per(float64(sm[kHandler].n))
		}
		res.add(ov+".handler_ns_per_call", "ns", ns)
		res.add(ov+".handler_calls_per_sample", "calls", calls)
	}

	call, remote := tt.kindStat(kCall), tt.kindStat(kRemote)
	var simnetNS, simnetCalls, simnetFails, simNS, simEvents float64
	var wireUS, wireRemote, wireAllocs, wireBytes, wireRetries float64
	switch in.transport {
	case "simnet":
		simnetNS = ratio(float64(call.self), float64(call.n))
		simnetCalls = per(float64(sm[kCall].n))
		simnetFails = per(float64(sm[kCall].errs))
	case "sim":
		simNS = ratio(float64(call.self), float64(call.n))
		simEvents = per(in.kernelEvents)
	case "wire":
		wireUS = ratio(float64(remote.self), float64(remote.n)) / 1e3
		wireRemote = ratio(float64(remote.n), float64(remote.n+call.n))
		wireAllocs, wireBytes = in.wireAllocs, in.wireBytes
		wireRetries = per(in.wireRetries)
	}
	res.add("simnet.self_ns_per_call", "ns", simnetNS)
	res.add("simnet.calls_per_sample", "calls", simnetCalls)
	res.add("simnet.failures_per_sample", "failures", simnetFails)
	res.add("sim.self_ns_per_call", "ns", simNS)
	res.add("sim.kernel_events_per_sample", "events", simEvents)
	res.add("wire.self_us_per_call", "us", wireUS)
	res.add("wire.remote_frac", "ratio", wireRemote)
	res.add("wire.allocs_per_call", "allocs", wireAllocs)
	res.add("wire.bytes_per_call", "B", wireBytes)
	res.add("wire.retries_per_sample", "retries", wireRetries)

	join, crash, maint := tt.stats[kJoin][kJoin], tt.stats[kCrash][kCrash], tt.stats[kMaintain][kMaintain]
	res.add("churn.join_ms", "ms", ratio(float64(join.busy), float64(join.n))/1e6)
	res.add("churn.crash_ms", "ms", ratio(float64(crash.busy), float64(crash.n))/1e6)
	res.add("churn.maintain_us", "us", ratio(float64(maint.busy), float64(maint.n))/1e3)
	res.add("churn.step_errors", "count", in.churnStepErrors)

	var failed int64
	for _, v := range tt.failByPhase {
		failed += v
	}
	res.add("load.attempted", "count", s)
	res.add("load.failed", "count", float64(failed))
	res.add("load.error_rate", "ratio", per(float64(failed)))
	res.add("load.retry_frac", "ratio", per(float64(tt.retried)))
	res.add("load.fail.h", "count", float64(tt.failByPhase[kH]))
	res.add("load.fail.next", "count", float64(tt.failByPhase[kNext]))
	res.add("load.fail.core", "count", float64(tt.failByPhase[kSample]))
	for _, c := range failClasses {
		res.add("load.fail."+c, "count", float64(tt.failByClass[c]))
	}

	var selfSum int64
	for k := range sm {
		selfSum += sm[k].self
	}
	res.add("trace.samples_per_s", "1/s", in.tracedRate)
	res.add("trace.overhead_frac", "ratio", 1-ratio(in.tracedRate, in.plainRate))
	res.add("trace.accounted_frac", "ratio", ratio(float64(selfSum), float64(sm[kSample].wall)))
}
