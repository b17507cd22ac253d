package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"deflection/internal/apps"
	"deflection/internal/enclave"
	"deflection/internal/nbench"
	"deflection/internal/obs"
	"deflection/internal/runtime"
	"deflection/internal/vplane"
)

// coldEnv is the verify-cold workload: one submitter calling Plane.Verify
// back to back, each time on a binary whose verdict it just invalidated.
type coldEnv struct {
	plane   *vplane.Plane
	reg     *obs.Registry
	spans   *spanLog
	verdict *verdictLog
	m       runtime.Manifest
	layout  enclave.Layout
	compile time.Duration

	good, bad   []*program
	goodC, badC *cycler
	badSlot     *blocks
	closeOnce   sync.Once
	nextID      obs.TraceID
}

// setupVerifyCold compiles the corpus — every nBench kernel, nw, seqgen,
// credit and the HTTPS handler, each plain and behind the permissive
// protocol, plus forged-mask and P1–P6 builds — and verifies each binary
// once so code paths and the heap are warm.
func setupVerifyCold(seed int64, _ float64, traced bool) (env, error) {
	b := &builder{}
	srcs := append(kernelSources(), appSources()...)
	srcs = append(srcs, source{"https", apps.HTTPSHandlerSource})
	plain, err := b.buildAll(srcs, false, accept)
	if err != nil {
		return nil, err
	}
	proto, err := b.buildAll(srcs, true, accept)
	if err != nil {
		return nil, err
	}
	fpemu, _ := nbench.KernelByName("FP EMULATION")
	idea, _ := nbench.KernelByName("IDEA")
	var bad []*program
	for _, s := range []struct {
		name, src string
		want      verdict
	}{
		{"nw-forged", apps.NWSource, violation},
		{"FP EMULATION-forged", fpemu.Source, violation},
		{"credit-weak", apps.CreditSource, mismatch},
		{"IDEA-weak", idea.Source, mismatch},
	} {
		p, err := b.build(s.name, s.src, s.want)
		if err != nil {
			return nil, err
		}
		bad = append(bad, p)
	}

	e := &coldEnv{
		reg:     obs.NewRegistry(),
		m:       manifest(),
		compile: b.compile,
		good:    append(plain, proto...),
		bad:     bad,
		goodC:   newCycler(newRand(seed, 1), len(plain)+len(proto)),
		badC:    newCycler(newRand(seed, 2), len(bad)),
		badSlot: &blocks{rng: newRand(seed, 3), size: 8},
	}
	if e.layout, err = defaultLayout(e.m); err != nil {
		return nil, err
	}
	cfg := vplane.Config{Metrics: e.reg, Workers: 1}
	if traced {
		e.verdict = &verdictLog{}
		cfg.Spans, e.spans = newCollector()
		cfg.Log = e.verdict.log
	}
	e.plane = vplane.New(cfg)
	for _, p := range append(append([]*program(nil), e.good...), e.bad...) {
		if o := e.verify(p); o.err != nil {
			e.close()
			return nil, fmt.Errorf("warm-up %s: %w", p.name, o.err)
		}
	}
	return e, nil
}

// next draws the next binary: in every block of eight one is known-bad.
func (e *coldEnv) next() *program {
	if e.badSlot.next() {
		return e.bad[e.badC.next()]
	}
	return e.good[e.goodC.next()]
}

// verify submits p as a cold verification and checks the verdict.
func (e *coldEnv) verify(p *program) op {
	e.plane.Cache().Invalidate(vplane.ComputeKey(p.obj, e.m, e.layout))
	e.nextID++
	o := op{prog: p, tid: e.nextID}
	ctx := obs.ContextWithTrace(context.Background(), o.tid)
	o.start = time.Now()
	v, src, err := e.plane.Verify(ctx, p.obj, e.m, e.layout)
	o.end = time.Now()
	o.due = o.start
	switch {
	case err != nil:
		o.err = err
	case src != vplane.SourceCold:
		o.err = fmt.Errorf("verdict source %v, want cold", src)
	default:
		o.err = p.want.check(v.Reject)
		if o.err == nil && p.want == accept && (v.Image == nil || v.Image.BinaryHash != p.hash) {
			o.err = fmt.Errorf("accepted without an image of the submitted binary")
		}
	}
	if e.verdict != nil {
		o.verdictAt = e.verdict.last()
	}
	return o
}

func (e *coldEnv) run(dur time.Duration, n int) (*phase, error) {
	before := counters(e.reg)
	ph := &phase{maxInflight: 1}
	heap := startHeapSampler()
	start := time.Now()
	deadline := start.Add(dur)
	for i := 0; (n > 0 && i < n) || (n <= 0 && time.Now().Before(deadline)); i++ {
		ph.ops = append(ph.ops, e.verify(e.next()))
	}
	ph.wall = time.Since(start)
	ph.alloc, ph.live = heap.finish()
	ph.counters = delta(before, counters(e.reg))
	if got := ph.counters["vplane_verify_runs_total"]; got != int64(len(ph.ops)) {
		ph.problems = append(ph.problems, fmt.Sprintf("vplane_verify_runs_total rose by %d over %d cold submissions", got, len(ph.ops)))
	}
	return ph, nil
}

func (e *coldEnv) close() { e.closeOnce.Do(e.plane.Close) }

func (e *coldEnv) compileTime() time.Duration { return e.compile }

func (e *coldEnv) layers(ph *phase) (map[string]float64, error) {
	return coldLayers(ph, e.spans, e.m)
}

// verdictLog records when the plane logged its latest cold verdict: the
// end of the scratch enclave's snapshot for an accepted binary, the end of
// ReceiveBinary for a rejected one.
type verdictLog struct {
	mu sync.Mutex
	at time.Time
}

func (l *verdictLog) log(event string, _ ...any) {
	if event == "vplane_cold_verify" || event == "vplane_negative_verdict" {
		l.mu.Lock()
		l.at = time.Now()
		l.mu.Unlock()
	}
}

func (l *verdictLog) last() time.Time {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.at
}
