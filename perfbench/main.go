// Command perfbench is the repository's end-to-end benchmark. It drives the
// verification plane (vplane.Plane.Verify), the ccaas session server behind
// the gateway over loopback TCP, the ccaas client and the bootstrap through
// their public entry points; checks every verdict and every output against
// a known answer; and prints one JSON result line.
//
//	perfbench --workload verify-cold --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced for half the time each and reports the
// per-layer breakdown, whose layers plus other_ms add up to the operation's
// wall time. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"

	"deflection/internal/enclave"
	"deflection/internal/policy"
	"deflection/internal/runtime"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// A plain run sets the workload up at least setupRepeats times and for at
// least setupTime, and reports the median as setup_s. A set-up of
// session-warm takes about 50 ms; the median of only five of them moved by
// a third from run to run on a shared 2-vCPU machine.
const (
	setupRepeats = 5
	setupTime    = time.Second
)

// slots bounds sessions or submitters in flight: the benchmark machine's
// two vCPUs.
const slots = 2

// workload is one seeded traffic mix.
type workload struct {
	name string
	// rate is the open-loop session arrival rate per second (0 = closed
	// loop).
	rate float64
	// limit is the latency limit: slo_ratio counts operations within it,
	// and a session run whose generator ran later than it is invalid.
	limit time.Duration
	// tail is the percentile tail_ms reports.
	tail  float64
	setup func(seed int64, rate float64, traced bool) (env, error)
}

var workloads = []workload{
	{name: "verify-cold", limit: 50 * time.Millisecond, tail: 0.95, setup: setupVerifyCold},
	{name: "session-warm", rate: 100, limit: 50 * time.Millisecond, tail: 0.90, setup: setupSessionWarm},
}

// env is a workload that has been set up: programs compiled, servers
// started, caches pre-warmed.
type env interface {
	// run measures the workload for dur, or for exactly n operations when
	// n > 0.
	run(dur time.Duration, n int) (*phase, error)
	// close stops every server and goroutine the set-up started.
	close()
	// layers derives the per-layer metrics of a traced phase; call it after
	// close, when every span has been flushed.
	layers(ph *phase) (map[string]float64, error)
	// compileTime is the compiler's share of the set-up.
	compileTime() time.Duration
}

// manifest is the policy configuration every workload verifies under.
func manifest() runtime.Manifest {
	m := runtime.DefaultManifest()
	m.Policies = policy.SetP1P8
	return m
}

// defaultLayout is the address map of a default-sized session enclave.
func defaultLayout(m runtime.Manifest) (enclave.Layout, error) {
	b, err := runtime.New(enclave.DefaultConfig(), m)
	if err != nil {
		return enclave.Layout{}, err
	}
	return b.Enclave().Layout, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: verify-cold or session-warm")
	seed := fs.Int64("seed", 1, "seed of every generated input")
	seconds := fs.Float64("seconds", 30, "measured seconds")
	trace := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced per-layer metrics")
	calibrate := fs.Bool("calibrate", false, "print the closed-loop session capacity of the workload's mix and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	dur := time.Duration(*seconds * float64(time.Second))

	var (
		res *result
		err error
	)
	switch {
	case *calibrate:
		err = calibrateCapacity(wl, *seed, dur, stdout)
	case *trace == 1:
		res, err = tracedRun(wl, *seed, dur, stdout)
	default:
		res, err = plainRun(wl, *seed, dur, stdout)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// plainRun sets the workload up repeatedly, measures the last set-up
// untraced and reports the end-to-end metrics.
func plainRun(wl *workload, seed int64, dur time.Duration, out io.Writer) (*result, error) {
	var (
		e      env
		setups []float64
	)
	for begin := time.Now(); len(setups) < setupRepeats || time.Since(begin) < setupTime; {
		if e != nil {
			e.close()
		}
		start := time.Now()
		x, err := wl.setup(seed, wl.rate, false)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		e = x
	}
	ph, err := e.run(dur, 0)
	e.close()
	if err != nil {
		return nil, err
	}
	m := wl.endToEnd(ph)
	m["setup_s"] = metric{median(setups), "s"}
	res := newResult(wl, ph)
	res.Metrics = m
	wl.report(out, res, ph)
	return res, nil
}

// tracedRun measures the workload untraced and then traced, each for half
// the time on a fresh set-up of the same seed, and reports the traced
// phase's per-layer metrics plus the tracing overhead.
func tracedRun(wl *workload, seed int64, dur time.Duration, out io.Writer) (*result, error) {
	phases := make([]*phase, 2)
	var layers map[string]float64
	for i, traced := range []bool{false, true} {
		e, err := wl.setup(seed, wl.rate, traced)
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", wl.name, err)
		}
		ph, err := e.run(dur/2, 0)
		e.close()
		if err != nil {
			return nil, err
		}
		phases[i] = ph
		if traced {
			if layers, err = e.layers(ph); err != nil {
				return nil, err
			}
			layers["compiler.compile_ms"] = ms(e.compileTime())
		}
	}
	untraced, traced := phases[0], phases[1]
	layers["trace.overhead_ms"] = median(latencies(traced)) - median(latencies(untraced))
	layers["loadgen.inflight_max"] = float64(traced.maxInflight)
	var late, wait float64
	for _, o := range traced.ops {
		late = max(late, ms(o.late))
		wait += ms(o.start.Sub(o.due))
	}
	layers["loadgen.late_ms"] = late
	layers["loadgen.wait_ms"] = wait / float64(len(traced.ops))

	res := newResult(wl, traced)
	u := newResult(wl, untraced)
	traced.problems = append(traced.problems, untraced.problems...)
	res.Correct = res.Correct && u.Correct
	res.Attempted += u.Attempted
	res.Failed += u.Failed
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, l := range perLayer {
		res.Metrics[l.name] = metric{layers[l.name], l.unit}
	}
	wl.report(out, res, traced)
	return res, nil
}

func latencies(ph *phase) []float64 {
	out := make([]float64, len(ph.ops))
	for i, o := range ph.ops {
		out[i] = ms(o.end.Sub(o.due))
	}
	return out
}

// newResult counts a phase's operations and folds its invariant checks into
// correct.
func newResult(wl *workload, ph *phase) *result {
	res := &result{Correct: len(ph.problems) == 0, Attempted: len(ph.ops)}
	for _, o := range ph.ops {
		if o.err != nil {
			res.Failed++
		}
	}
	if res.Failed > 0 || res.Attempted == 0 {
		res.Correct = false
	}
	if wl.rate > 0 {
		for _, o := range ph.ops {
			if o.late > wl.limit {
				// The generator itself fell behind by more than the latency
				// limit: the latencies measure the load generator, not the
				// system, so the run is invalid.
				res.Correct = false
				ph.problems = append(ph.problems, fmt.Sprintf("invalid run: generator ran %v late (limit %v)", o.late, wl.limit))
				break
			}
		}
	}
	return res
}

// endToEnd computes the user-visible metrics of an untraced phase.
func (wl *workload) endToEnd(ph *phase) map[string]metric {
	lat := latencies(ph)
	var within int
	for i, o := range ph.ops {
		if o.err == nil && lat[i] <= ms(wl.limit) {
			within++
		}
	}
	n := float64(len(ph.ops))
	return map[string]metric{
		"ops_per_s":       {n / ph.wall.Seconds(), "1/s"},
		"p50_ms":          {median(lat), "ms"},
		"tail_ms":         {wl.tailOf(lat), "ms"},
		"slo_ratio":       {float64(within) / n, "ratio"},
		"alloc_mb_per_op": {float64(ph.alloc) / 1e6 / n, "MB"},
		"live_heap_mb":    {ph.live / 1e6, "MB"},
	}
}

// tailOf is the run's tail latency: the median, over consecutive windows
// long enough to leave at least ten samples beyond the tail percentile, of
// each window's tail. A few seconds in which the shared machine runs slow
// then move one window's tail instead of doubling the whole run's.
func (wl *workload) tailOf(lat []float64) float64 {
	size := int(math.Ceil(10 / (1 - wl.tail)))
	k := max(len(lat)/size, 1)
	tails := make([]float64, k)
	for i := range tails {
		tails[i] = quantile(lat[i*len(lat)/k:(i+1)*len(lat)/k], wl.tail)
	}
	return median(tails)
}

// report prints a human-readable summary, every metric by name and unit,
// and the first failures; the JSON line follows it.
func (wl *workload) report(out io.Writer, res *result, ph *phase) {
	fmt.Fprintf(out, "workload %s: %d operations, %d failed, error_ratio %.4f, correct %v\n",
		wl.name, res.Attempted, res.Failed, float64(res.Failed)/float64(max(res.Attempted, 1)), res.Correct)
	if beyond := float64(len(ph.ops)) * (1 - wl.tail); beyond < 10 {
		fmt.Fprintf(out, "  warning: only %.0f samples beyond p%g\n", beyond, wl.tail*100)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(out, "  %-24s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	for _, p := range ph.problems {
		fmt.Fprintf(out, "  problem: %s\n", p)
	}
	shown := 0
	for _, o := range ph.ops {
		if o.err != nil && shown < 5 {
			label := "?"
			if o.prog != nil {
				label = o.prog.name
			}
			fmt.Fprintf(out, "  failed %s: %s\n", label, strings.ReplaceAll(o.err.Error(), "\n", " "))
			shown++
		}
	}
}
