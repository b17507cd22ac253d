package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"deflection/attest"
	"deflection/internal/ccaas"
	"deflection/internal/enclave"
	"deflection/internal/gateway"
	"deflection/internal/obs"
	"deflection/internal/runtime"
	"deflection/internal/vplane"
)

// sessionTimeout bounds one session end to end; a stalled session fails
// instead of hanging the run.
const sessionTimeout = 30 * time.Second

// stack is the serving path: a verification plane behind a ccaas server
// behind a gateway, each on its own loopback listener, sharing one metrics
// registry and (when traced) one span collector.
type stack struct {
	reg    *obs.Registry
	spans  *obs.Collector
	log    *spanLog
	plane  *vplane.Plane
	srv    *ccaas.Server
	gw     *gateway.Gateway
	as     *attest.Service
	meas   [32]byte
	m      runtime.Manifest
	layout enclave.Layout
	gwAddr string

	serving   sync.WaitGroup
	closeOnce sync.Once
}

func startStack(traced bool) (*stack, error) {
	s := &stack{reg: obs.NewRegistry(), m: manifest()}
	if traced {
		s.spans, s.log = newCollector()
	}
	var err error
	if s.layout, err = defaultLayout(s.m); err != nil {
		return nil, err
	}
	platform, err := attest.NewPlatform("perfbench")
	if err != nil {
		return nil, err
	}
	s.as = attest.NewService()
	s.as.Register(platform)
	s.plane = vplane.New(vplane.Config{Metrics: s.reg, Spans: s.spans, Workers: 1})
	s.srv, err = ccaas.NewServer(ccaas.ServerConfig{
		Platform:       platform,
		Policies:       s.m.Policies,
		SessionTimeout: sessionTimeout,
		IOTimeout:      sessionTimeout,
		Metrics:        s.reg,
		Spans:          s.spans,
		Verify:         s.plane,
	})
	if err != nil {
		s.plane.Close()
		return nil, err
	}
	if s.meas, err = s.srv.Measurement(); err != nil {
		s.plane.Close()
		return nil, err
	}
	srvLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.plane.Close()
		return nil, err
	}
	s.serve(func() error { return s.srv.Serve(srvLn) })
	s.gw, err = gateway.New(gateway.Config{
		Backends:      []string{srvLn.Addr().String()},
		ProbeInterval: -1,
		Metrics:       s.reg,
		Spans:         s.spans,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	gwLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.gwAddr = gwLn.Addr().String()
	s.serve(func() error { return s.gw.Serve(gwLn) })
	return s, nil
}

func (s *stack) serve(f func() error) {
	s.serving.Add(1)
	go func() {
		defer s.serving.Done()
		_ = f() // returns once Shutdown closes the listener
	}()
}

// close drains the gateway and the server, stops the plane and waits for
// every serving goroutine.
func (s *stack) close() {
	s.closeOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if s.gw != nil {
			_ = s.gw.Shutdown(ctx)
		}
		_ = s.srv.Shutdown(ctx)
		s.plane.Close()
		s.serving.Wait()
	})
}

// prewarm verifies p through the plane under the server's manifest and
// layout, so sessions submitting it hit the verdict cache.
func (s *stack) prewarm(p *program) error {
	v, _, err := s.plane.Verify(context.Background(), p.obj, s.m, s.layout)
	if err != nil {
		return err
	}
	return p.want.check(v.Reject)
}

// session runs j as one full client session through the gateway: dial,
// preamble, attest, SendBinary, SendData, Run and Close. The returned op
// carries benchmark-side spans around each client call.
func (s *stack) session(j *job, tid obs.TraceID) op {
	o := op{prog: j.prog, tid: tid}
	o.start = time.Now()
	o.err = s.drive(j, &o)
	o.end = time.Now()
	if o.err != nil {
		o.err = fmt.Errorf("%s: %w", j.label, o.err)
	}
	return o
}

func (s *stack) drive(j *job, o *op) error {
	t := time.Now()
	conn, err := net.Dial("tcp", s.gwAddr)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.SetDeadline(t.Add(sessionTimeout)); err != nil {
		return err
	}
	if err := gateway.WritePreambleTraced(conn, j.prog.hash[:], s.traceID(o.tid)); err != nil {
		return err
	}
	t = lap(t, &o.connect)
	c, err := ccaas.Dial(conn, s.as, s.meas, attest.RoleCodeProvider)
	if err != nil {
		return err
	}
	t = lap(t, &o.handshake)
	if id := s.traceID(o.tid); id != 0 {
		if err := c.SendTrace(id); err != nil {
			return err
		}
		o.sent = append(o.sent, 1+len(`{"trace":"0000000000000000"}`))
	}
	t = time.Now()
	_, _, err = c.SendBinary(j.prog.obj)
	t = lap(t, &o.upload)
	o.sent = append(o.sent, 1+len(j.prog.obj))
	if j.check == nil {
		if err := j.prog.want.checkWire(err); err != nil {
			return err
		}
		return c.Close()
	}
	if err != nil {
		return err
	}
	for _, in := range j.inputs {
		if err := c.SendData(in); err != nil {
			return err
		}
		o.sent = append(o.sent, 1+len(in))
	}
	t = lap(t, &o.data)
	rr, err := c.Run()
	if err != nil {
		return err
	}
	lap(t, &o.run)
	o.sent = append(o.sent, 1)
	o.insts = rr.Insts
	if err := j.check(rr); err != nil {
		return err
	}
	return c.Close()
}

// traceID is the preamble's trace ID: zero (elided) when untraced.
func (s *stack) traceID(tid obs.TraceID) obs.TraceID {
	if s.spans == nil {
		return 0
	}
	return tid
}

// lap stores the time since t in *d and returns now.
func lap(t time.Time, d *time.Duration) time.Time {
	now := time.Now()
	*d = now.Sub(t)
	return now
}

// sessionEnv is an open-loop session workload on one stack.
type sessionEnv struct {
	st      *stack
	seed    int64
	rate    float64
	next    func() (job, error)
	compile time.Duration
}

// setupSessionWarm: the sum service and two known-bad builds of it, all
// verified in set-up; one session in twenty submits a known-bad binary and
// must be refused from the negative cache. Set-up ends with two warm-up
// sessions per binary.
func setupSessionWarm(seed int64, rate float64, traced bool) (env, error) {
	b := &builder{}
	sum, err := b.build("sum", sumSource, accept)
	if err != nil {
		return nil, err
	}
	var bad []*program
	for _, w := range []verdict{violation, mismatch} {
		p, err := b.build(fmt.Sprintf("sum-%d", w), sumSource, w)
		if err != nil {
			return nil, err
		}
		bad = append(bad, p)
	}
	inputs, badSlot, badC := newRand(seed, 4), &blocks{rng: newRand(seed, 3), size: 20}, newCycler(newRand(seed, 2), len(bad))
	next := func() (job, error) {
		if badSlot.next() {
			p := bad[badC.next()]
			return job{prog: p, label: p.name}, nil
		}
		return sumJob(sum, inputs), nil
	}
	prewarmed := append([]*program{sum}, bad...)
	st, err := startStack(traced)
	if err != nil {
		return nil, err
	}
	e := &sessionEnv{st: st, seed: seed, rate: rate, next: next, compile: b.compile}
	for _, p := range prewarmed {
		if err := st.prewarm(p); err != nil {
			st.close()
			return nil, fmt.Errorf("pre-warm %s: %w", p.name, err)
		}
	}
	// Warm-up sessions take the first draws of the job streams; their count
	// is fixed, so a seed's measured jobs stay the same.
	for i := 0; i < 2*len(prewarmed); i++ {
		j, err := next()
		if err != nil {
			st.close()
			return nil, err
		}
		if o := st.session(&j, 0); o.err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up session: %w", o.err)
		}
	}
	return e, nil
}

func (e *sessionEnv) run(dur time.Duration, n int) (*phase, error) {
	if n <= 0 {
		n = int(math.Round(e.rate * dur.Seconds()))
	}
	sched := poissonSchedule(newRand(e.seed, 5), e.rate, n)
	jobs := make([]job, len(sched))
	for i := range jobs {
		var err error
		if jobs[i], err = e.next(); err != nil {
			return nil, err
		}
	}
	before := counters(e.st.reg)
	ph := &phase{ops: make([]op, len(sched))}
	heap := startHeapSampler()
	var (
		wg       sync.WaitGroup
		inflight atomic.Int64
		maxIn    atomic.Int64
		slot     = make(chan struct{}, slots)
	)
	t0 := time.Now().Add(10 * time.Millisecond)
	for i, off := range sched {
		due := t0.Add(off)
		time.Sleep(time.Until(due))
		late := time.Since(due)
		wg.Add(1)
		go func(i int, due time.Time, late time.Duration) {
			defer wg.Done()
			slot <- struct{}{} // blocked sessions queue in arrival order
			for n := inflight.Add(1); ; {
				if m := maxIn.Load(); n <= m || maxIn.CompareAndSwap(m, n) {
					break
				}
			}
			o := e.st.session(&jobs[i], obs.TraceID(i+1))
			inflight.Add(-1)
			<-slot
			o.due, o.late = due, late
			ph.ops[i] = o
		}(i, due, late)
	}
	wg.Wait()
	var last time.Time
	for _, o := range ph.ops {
		if o.end.After(last) {
			last = o.end
		}
	}
	ph.wall = last.Sub(t0)
	ph.alloc, ph.live = heap.finish()
	ph.maxInflight = maxIn.Load()
	ph.counters = delta(before, counters(e.st.reg))
	// Every session is served from the verdict cache.
	if got := ph.counters["vplane_verify_runs_total"]; got != 0 {
		ph.problems = append(ph.problems, fmt.Sprintf("vplane_verify_runs_total rose by %d; every verdict should be cached", got))
	}
	return ph, nil
}

func (e *sessionEnv) close() { e.st.close() }

func (e *sessionEnv) compileTime() time.Duration { return e.compile }

func (e *sessionEnv) layers(ph *phase) (map[string]float64, error) {
	return sessionLayers(ph, e.st.log, e.st.m)
}

// calibrateCapacity runs the workload's session mix closed-loop with every
// slot busy and prints sessions per second: the capacity the open-loop
// rates are set against.
func calibrateCapacity(wl *workload, seed int64, dur time.Duration, out io.Writer) error {
	x, err := wl.setup(seed, wl.rate, false)
	if err != nil {
		return err
	}
	defer x.close()
	e, ok := x.(*sessionEnv)
	if !ok {
		return errors.New("calibrate applies to session workloads")
	}
	var (
		mu   sync.Mutex
		done int
		errs int
		wg   sync.WaitGroup
	)
	deadline := time.Now().Add(dur)
	for w := 0; w < slots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				mu.Lock()
				j, err := e.next()
				mu.Unlock()
				if err != nil {
					return
				}
				o := e.st.session(&j, 0)
				mu.Lock()
				done++
				if o.err != nil {
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	fmt.Fprintf(out, "%s: %d sessions (%d failed) in %v with %d slots: capacity %.1f sessions/s\n",
		wl.name, done, errs, dur, slots, float64(done)/dur.Seconds())
	return nil
}
