package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	goruntime "runtime"
	"sync"
	"time"

	"deflection/attest"
	"deflection/internal/disasm"
	"deflection/internal/enclave"
	"deflection/internal/loader"
	"deflection/internal/obj"
	"deflection/internal/obs"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// spanLog is a span collector's sink: every span as one JSON line in a
// single pointer-free buffer. A large in-memory ring of span records would
// be rescanned by every garbage collection and slow the traced run down.
type spanLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *spanLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

// newCollector returns a collector that keeps its spans only in the log.
func newCollector() (*obs.Collector, *spanLog) {
	l := &spanLog{}
	return obs.NewCollector(obs.CollectorConfig{Capacity: 1, Sink: l}), l
}

// op is one measured operation: a cold verification or a session.
type op struct {
	due, start, end time.Time
	// late is how far behind its due time the generator released the
	// operation (open loop only).
	late time.Duration
	// err is a wrong verdict or output, a refusal or a timeout.
	err  error
	tid  obs.TraceID
	prog *program

	// Benchmark-side spans around the client's calls (sessions).
	connect, handshake, upload, data, run time.Duration
	insts                                 uint64
	sent                                  []int // sizes of the client's sealed messages

	// verdictAt is when the plane logged a cold verdict (traced verify-cold).
	verdictAt time.Time
}

// phase is one measured interval of a workload.
type phase struct {
	ops         []op
	wall        time.Duration
	alloc       uint64
	live        float64
	counters    map[string]int64 // registry counter deltas over the phase
	maxInflight int64
	problems    []string // violated invariants
}

// counterNames are the registry counters a phase reports.
var counterNames = []string{
	"vplane_cache_hits_total",
	"vplane_cache_negative_hits_total",
	"vplane_cache_misses_total",
	"vplane_verify_runs_total",
	"ccaas_sessions_rejected_busy_total",
	"ccaas_verify_overloaded_total",
	"gateway_sessions_rejected_busy_total",
	"gateway_no_backend_total",
	"gateway_connect_failures_total",
}

func counters(reg *obs.Registry) map[string]int64 {
	out := make(map[string]int64, len(counterNames))
	for _, n := range counterNames {
		out[n] = reg.Counter(n).Value()
	}
	return out
}

func delta(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	return out
}

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct {
	name, unit string
	higher     bool
}

// perLayer is every per-layer metric a traced run reports, on every
// workload (0 where the workload does not exercise the layer). Times are
// totals over the traced phase divided by its operations, so the leaf
// layers plus other_ms add up to the mean operation wall time; counts are
// per cold verification (disasm, cfa, taint, order) or per run (cpu).
var perLayer = []layerMetric{
	{"obj.parse_ms", "ms", false},
	{"loader.load_ms", "ms", false},
	{"loader.rewrite_ms", "ms", false},
	{"disasm.ms", "ms", false},
	{"disasm.insts", "count", false},
	{"disasm.allocs", "count", false},
	{"cfa.build_ms", "ms", false},
	{"cfa.blocks", "count", false},
	{"verifier.ms", "ms", false},
	{"verifier.templates_ms", "ms", false},
	{"verifier.cfa_passes_ms", "ms", false},
	{"verifier.allocs", "count", false},
	{"verifier.alloc_mb", "MB", false},
	{"taint.ms", "ms", false},
	{"taint.funcs", "count", false},
	{"order.ms", "ms", false},
	{"order.contexts", "count", false},
	{"enclave.create_ms", "ms", false},
	{"enclave.create_mb", "MB", false},
	{"runtime.receive_ms", "ms", false},
	{"runtime.snapshot_ms", "ms", false},
	{"runtime.install_ms", "ms", false},
	{"runtime.run_ms", "ms", false},
	{"cpu.minsts_per_s", "Minst/s", true},
	{"cpu.insts", "count", false},
	{"vplane.lookup_us", "us", false},
	{"vplane.cold_ms", "ms", false},
	{"vplane.queue_wait_ms", "ms", false},
	{"vplane.hit_ratio", "ratio", true},
	{"vplane.lookups", "count", true},
	{"vplane.verify_runs", "count", false},
	{"attest.handshake_ms", "ms", false},
	{"attest.seal_us", "us", false},
	{"ccaas.upload_ms", "ms", false},
	{"ccaas.data_ms", "ms", false},
	{"ccaas.run_ms", "ms", false},
	{"ccaas.busy", "count", false},
	{"gateway.connect_ms", "ms", false},
	{"gateway.rejects", "count", false},
	{"compiler.compile_ms", "ms", false},
	{"loadgen.late_ms", "ms", false},
	{"loadgen.wait_ms", "ms", false},
	{"loadgen.inflight_max", "count", false},
	{"other_ms", "ms", false},
	{"trace.overhead_ms", "ms", false},
}

// spansByTrace groups the logged spans by trace ID and name.
func spansByTrace(l *spanLog) (map[obs.TraceID]map[string]obs.SpanRecord, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make(map[obs.TraceID]map[string]obs.SpanRecord)
	sc := bufio.NewScanner(bytes.NewReader(l.buf.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r obs.SpanRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("span log: %w", err)
		}
		m := out[r.Trace]
		if m == nil {
			m = make(map[string]obs.SpanRecord)
			out[r.Trace] = m
		}
		m[r.Name] = r
	}
	return out, sc.Err()
}

func dur(r obs.SpanRecord) time.Duration { return time.Duration(r.DurNs) }

func spanEnd(r obs.SpanRecord) time.Time { return r.Start.Add(dur(r)) }

func attrNum(r obs.SpanRecord, key string) float64 {
	for _, a := range r.Attrs {
		if a.Key == key {
			if v, ok := a.Val.(float64); ok { // numbers come back from JSON as float64
				return v
			}
		}
	}
	return 0
}

// pipeline is one cold verification split by layer, from the stage trace
// the plane exports and the span around its worker-pool wait.
type pipeline struct {
	// found: the trace holds a cold verification; accepted: it ran to the
	// rewrite.
	found, accepted bool

	queueWait, create, parse, load, disasm, verifier, cfaBuild, taint, order, rewrite, snapshot time.Duration
	// Nested in the leaves above.
	templates, cfaPasses, receive time.Duration

	insts, blocks, funcs, contexts float64
}

// leaves is the pipeline's share of the operation wall time; each layer is
// counted once (the P7/P8 audit entries repeat cfa/taint and cfa/order and
// are not added).
func (p *pipeline) leaves() time.Duration {
	return p.queueWait + p.create + p.parse + p.load + p.disasm + p.verifier +
		p.cfaBuild + p.taint + p.order + p.rewrite + p.snapshot
}

// pipelineOf reads one cold verification out of its trace. Trace.Add stamps
// a span when it is added, so a self-timed stage's recorded start is its
// end. verdictAt (zero when unknown) ends the snapshot of an accepted
// binary and ReceiveBinary of a rejected one.
func pipelineOf(sp map[string]obs.SpanRecord, verdictAt time.Time) pipeline {
	var p pipeline
	parse, ok := sp["receive_binary/parse"]
	if !ok {
		return p
	}
	p.found = true
	d := func(name string) time.Duration { return dur(sp["receive_binary/"+name]) }
	if q, ok := sp["vplane/queue_wait"]; ok {
		p.queueWait = dur(q)
		// The scratch enclave is created between the end of the pool wait
		// and the start of ReceiveBinary.
		p.create = parse.Start.Sub(spanEnd(q))
	}
	p.parse = dur(parse)
	p.load = d("load")
	p.disasm = d("disasm")
	for _, id := range []string{"P1", "P2", "P3", "P4", "P5", "P6"} {
		p.templates += d("policy/" + id)
	}
	p.cfaPasses = d("cfa/targets") + d("cfa/deadbyte") + d("cfa/dominance")
	p.verifier = p.templates + d("discipline") + p.cfaPasses
	p.cfaBuild = d("cfa/build")
	p.taint = d("cfa/taint")
	p.order = d("cfa/order")
	p.rewrite = d("rewrite")
	p.insts = attrNum(sp["receive_binary/disasm"], "instructions")
	p.blocks = attrNum(sp["receive_binary/cfa/build"], "blocks")
	p.funcs = attrNum(sp["receive_binary/cfa/taint"], "funcs")
	p.contexts = attrNum(sp["receive_binary/cfa/order"], "contexts")
	if rw, ok := sp["receive_binary/rewrite"]; ok {
		p.accepted = true
		p.receive = rw.Start.Sub(parse.Start)
		if !verdictAt.IsZero() {
			p.snapshot = verdictAt.Sub(rw.Start)
		}
	} else if !verdictAt.IsZero() {
		// A rejected binary leaves no verifier stage times: everything in
		// ReceiveBinary after the last recorded stage is the verifier's
		// (disassembly included) up to the rejection.
		p.receive = verdictAt.Sub(parse.Start)
		last := spanEnd(parse)
		for _, n := range []string{"receive_binary/policy/P0", "receive_binary/load"} {
			if r, ok := sp[n]; ok && spanEnd(r).After(last) {
				last = spanEnd(r)
			}
		}
		p.verifier = verdictAt.Sub(last)
	}
	return p
}

// layerAcc accumulates per-operation layer values.
type layerAcc struct {
	sum map[string]float64
	ops int
}

func (a *layerAcc) add(name string, d time.Duration) { a.sum[name] += ms(d) }

// addPipeline accounts one cold verification's stages.
func (a *layerAcc) addPipeline(p *pipeline) {
	a.add("vplane.queue_wait_ms", p.queueWait)
	a.add("obj.parse_ms", p.parse)
	a.add("loader.load_ms", p.load)
	a.add("loader.rewrite_ms", p.rewrite)
	a.add("disasm.ms", p.disasm)
	a.add("cfa.build_ms", p.cfaBuild)
	a.add("verifier.ms", p.verifier)
	a.add("verifier.templates_ms", p.templates)
	a.add("verifier.cfa_passes_ms", p.cfaPasses)
	a.add("taint.ms", p.taint)
	a.add("order.ms", p.order)
	a.add("runtime.receive_ms", p.receive)
	a.add("runtime.snapshot_ms", p.snapshot)
}

// result turns sums into per-operation means, and the stage counts into
// means per accepted cold verification.
func (a *layerAcc) result(colds []pipeline) map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for k, v := range a.sum {
		out[k] = v / float64(a.ops)
	}
	n := 0
	for _, p := range colds {
		if p.accepted {
			out["disasm.insts"] += p.insts
			out["cfa.blocks"] += p.blocks
			out["taint.funcs"] += p.funcs
			out["order.contexts"] += p.contexts
			n++
		}
	}
	if n > 0 {
		for _, k := range []string{"disasm.insts", "cfa.blocks", "taint.funcs", "order.contexts"} {
			out[k] /= float64(n)
		}
	}
	return out
}

// coldLayers is the verify-cold breakdown: every operation is one
// Plane.Verify call whose wall time is vplane.cold_ms.
func coldLayers(ph *phase, log *spanLog, m runtime.Manifest) (map[string]float64, error) {
	traces, err := spansByTrace(log)
	if err != nil {
		return nil, err
	}
	acc := &layerAcc{sum: make(map[string]float64), ops: len(ph.ops)}
	var colds []pipeline
	var accepted []*program
	for i := range ph.ops {
		o := &ph.ops[i]
		p := pipelineOf(traces[o.tid], o.verdictAt)
		if !p.found {
			return nil, fmt.Errorf("no stage trace for cold verification %d (%s)", o.tid, o.prog.name)
		}
		colds = append(colds, p)
		wall := o.end.Sub(o.start)
		acc.add("vplane.cold_ms", wall)
		acc.add("enclave.create_ms", p.create)
		acc.addPipeline(&p)
		acc.add("other_ms", wall-p.leaves())
		if o.prog.want == accept {
			accepted = append(accepted, o.prog)
		}
	}
	out := acc.result(colds)
	if err := addAllocs(out, accepted, m); err != nil {
		return nil, err
	}
	addCounters(out, ph)
	return out, nil
}

// sessionLayers is the session breakdown. Client-side spans time the calls
// into gateway (dial + preamble), attest (ccaas.Dial) and ccaas; the
// server's spans give enclave creation (from the end of attestation to the
// start of the load), the plane's lookup or cold verification, the image
// install (the rest of the load) and the interpreter run.
func sessionLayers(ph *phase, log *spanLog, m runtime.Manifest) (map[string]float64, error) {
	traces, err := sessionSpans(ph, log)
	if err != nil {
		return nil, err
	}
	acc := &layerAcc{sum: make(map[string]float64), ops: len(ph.ops)}
	var (
		colds    []pipeline
		accepted []*program
		insts    float64
		runs     int
		runTime  time.Duration
	)
	for i := range ph.ops {
		o := &ph.ops[i]
		sp := traces[o.tid]
		att, okA := sp["session/attest"]
		load, okL := sp["session/load"]
		var create time.Duration
		if okA && okL {
			create = load.Start.Add(-dur(load)).Sub(att.Start)
		}
		lookup, cold := dur(sp["vplane/cache_hit"]), dur(sp["vplane/verify"])
		install := dur(load) - lookup - cold
		run := dur(sp["session/run"])
		wait := o.start.Sub(o.due)
		leaves := wait + o.connect + o.handshake + create + lookup + cold + install + o.data + run

		acc.add("loadgen.wait_ms", wait)
		acc.add("gateway.connect_ms", o.connect)
		acc.add("attest.handshake_ms", o.handshake)
		acc.add("enclave.create_ms", create)
		acc.add("vplane.lookup_us", lookup*1000)
		acc.add("vplane.cold_ms", cold)
		acc.add("runtime.install_ms", install)
		acc.add("ccaas.upload_ms", o.upload)
		acc.add("ccaas.data_ms", o.data)
		acc.add("ccaas.run_ms", o.run)
		acc.add("runtime.run_ms", run)
		acc.add("other_ms", o.end.Sub(o.due)-leaves)
		if p := pipelineOf(sp, time.Time{}); p.found {
			acc.addPipeline(&p)
			colds = append(colds, p)
			accepted = append(accepted, o.prog)
		}
		if o.insts > 0 {
			insts += float64(o.insts)
			runTime += run
			runs++
		}
	}
	out := acc.result(colds)
	if runs > 0 {
		out["cpu.insts"] = insts / float64(runs)
		out["cpu.minsts_per_s"] = insts / runTime.Seconds() / 1e6
	}
	seal, err := sealCost(ph)
	if err != nil {
		return nil, err
	}
	out["attest.seal_us"] = seal
	if err := addAllocs(out, accepted, m); err != nil {
		return nil, err
	}
	addCounters(out, ph)
	return out, nil
}

// sessionSpans waits for the server to flush every completed session's
// spans, which it does after the session has released its slot (so
// possibly after Shutdown returned), and groups them by trace.
func sessionSpans(ph *phase, log *spanLog) (map[obs.TraceID]map[string]obs.SpanRecord, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		traces, err := spansByTrace(log)
		if err != nil {
			return nil, err
		}
		missing := 0
		for _, o := range ph.ops {
			if _, ok := traces[o.tid]["session"]; !ok && o.err == nil {
				missing++
			}
		}
		if missing == 0 {
			return traces, nil
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("server spans of %d sessions missing", missing)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// addCounters reports the plane, server and gateway counters of a phase.
func addCounters(out map[string]float64, ph *phase) {
	c := ph.counters
	hits := c["vplane_cache_hits_total"] + c["vplane_cache_negative_hits_total"]
	lookups := hits + c["vplane_cache_misses_total"]
	out["vplane.lookups"] = float64(lookups)
	if lookups > 0 {
		out["vplane.hit_ratio"] = float64(hits) / float64(lookups)
	}
	out["vplane.verify_runs"] = float64(c["vplane_verify_runs_total"])
	out["ccaas.busy"] = float64(c["ccaas_sessions_rejected_busy_total"] + c["ccaas_verify_overloaded_total"])
	out["gateway.rejects"] = float64(c["gateway_sessions_rejected_busy_total"] +
		c["gateway_no_backend_total"] + c["gateway_connect_failures_total"])
}

// sealCost re-seals every session's outgoing messages on a benchmark-owned
// attest.Channel and returns the mean sealing time per session in µs.
func sealCost(ph *phase) (float64, error) {
	ch, err := attest.NewChannel(make([]byte, 32))
	if err != nil {
		return 0, err
	}
	var (
		buf   []byte
		total time.Duration
	)
	for _, o := range ph.ops {
		for _, n := range o.sent {
			if n > len(buf) {
				buf = make([]byte, n)
			}
			start := time.Now()
			ch.Seal(buf[:n])
			total += time.Since(start)
		}
	}
	return float64(total) / float64(time.Microsecond) / float64(len(ph.ops)), nil
}

// addAllocs measures, after the traced phase, what the layers allocate:
// disasm.Disassemble and verifier.Verify on each accepted binary that was
// verified cold (weighted by how often it was), and runtime.New's enclave.
func addAllocs(out map[string]float64, accepted []*program, m runtime.Manifest) error {
	prof := make(map[*program][3]float64)
	var sum [3]float64
	for _, p := range accepted {
		a, ok := prof[p]
		if !ok {
			var err error
			if a, err = verifyAllocs(p, m); err != nil {
				return err
			}
			prof[p] = a
		}
		for i := range sum {
			sum[i] += a[i]
		}
	}
	if n := float64(len(accepted)); n > 0 {
		out["disasm.allocs"] = sum[0] / n
		out["verifier.allocs"] = sum[1] / n
		out["verifier.alloc_mb"] = sum[2] / n / 1e6
	}
	var sizes []float64
	for i := 0; i < 3; i++ {
		before := totalAlloc()
		if _, err := runtime.New(enclave.DefaultConfig(), m); err != nil {
			return err
		}
		sizes = append(sizes, float64(totalAlloc().bytes-before.bytes)/1e6)
	}
	out["enclave.create_mb"] = median(sizes)
	return nil
}

type allocs struct{ n, bytes uint64 }

func totalAlloc() allocs {
	var s goruntime.MemStats
	goruntime.ReadMemStats(&s)
	return allocs{s.Mallocs, s.TotalAlloc}
}

// verifyAllocs loads p as ReceiveBinary does and counts the allocations of
// disasm.Disassemble and of the rest of verifier.Verify (objects, objects,
// bytes).
func verifyAllocs(p *program, m runtime.Manifest) ([3]float64, error) {
	var out [3]float64
	boot, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		return out, err
	}
	o, err := obj.Unmarshal(p.obj)
	if err != nil {
		return out, err
	}
	ld, err := loader.Load(boot.Enclave(), o)
	if err != nil {
		return out, err
	}
	text, err := ld.TextBytes()
	if err != nil {
		return out, err
	}
	entries := []int64{int64(ld.Entry - ld.TextBase)}
	var targets []int64
	for _, t := range ld.BranchTargets {
		targets = append(targets, int64(t-ld.TextBase))
	}
	entries = append(entries, targets...)

	a := totalAlloc()
	if _, err := disasm.Disassemble(text, entries); err != nil {
		return out, err
	}
	b := totalAlloc()
	if _, err := verifier.Verify(text, verifier.Options{
		Required:            m.Policies,
		AEXCheckMaxGap:      m.AEXCheckMaxGap,
		EntryOffset:         entries[0],
		BranchTargetOffsets: targets,
		Taint:               runtime.TaintConfig(ld),
		Order:               runtime.OrderProtocol(ld),
	}); err != nil {
		return out, err
	}
	c := totalAlloc()
	dis := b.n - a.n
	out[0] = float64(dis)
	out[1] = float64(c.n - b.n - dis)
	out[2] = float64(c.bytes - b.bytes - (b.bytes - a.bytes))
	return out, nil
}
