package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"testing"
	"time"
)

// jobTrace renders a workload's first n session jobs: binary hash and
// inputs.
func jobTrace(t *testing.T, e env, n int) []string {
	t.Helper()
	se := e.(*sessionEnv)
	var out []string
	for i := 0; i < n; i++ {
		j, err := se.next()
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, fmt.Sprintf("%x %x", j.prog.hash[:8], j.inputs))
	}
	return out
}

// coldTrace renders verify-cold's first n draws by binary hash.
func coldTrace(e env, n int) []string {
	ce := e.(*coldEnv)
	var out []string
	for i := 0; i < n; i++ {
		out = append(out, fmt.Sprintf("%x", ce.next().hash[:8]))
	}
	return out
}

func setup(t *testing.T, name string, seed int64, traced bool) (env, *workload) {
	t.Helper()
	for i := range workloads {
		if wl := &workloads[i]; wl.name == name {
			e, err := wl.setup(seed, wl.rate, traced)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(e.close)
			return e, wl
		}
	}
	t.Fatalf("no workload %q", name)
	return nil, nil
}

// TestSeedDeterminesInputs: one seed gives the same binaries, draw order and
// arrival schedule; another seed gives another schedule and order.
func TestSeedDeterminesInputs(t *testing.T) {
	draws := func(name string, seed int64) []string {
		e, _ := setup(t, name, seed, false)
		if name == "verify-cold" {
			return coldTrace(e, 100)
		}
		return jobTrace(t, e, 100)
	}
	for _, name := range []string{"verify-cold", "session-warm"} {
		a, b, c := draws(name, 7), draws(name, 7), draws(name, 8)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 drew different inputs on two set-ups", name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 drew the same inputs", name)
		}
	}
	rate := workloads[1].rate
	a := poissonSchedule(newRand(7, 5), rate, 500)
	b := poissonSchedule(newRand(7, 5), rate, 500)
	c := poissonSchedule(newRand(8, 5), rate, 500)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("seed 7 gave two schedules")
	}
	if reflect.DeepEqual(a, c) {
		t.Errorf("seeds 7 and 8 gave the same schedule")
	}
	if span := time.Duration(500 / rate * float64(time.Second)); a[len(a)-1] >= span {
		t.Errorf("last arrival %v beyond the %v span", a[len(a)-1], span)
	}
}

// exactCounts are the per-layer counts that depend only on the inputs.
var exactCounts = []string{"cpu.insts", "disasm.insts", "cfa.blocks", "taint.funcs", "order.contexts", "vplane.verify_runs"}

// TestCountsRepeat: two traced runs of one seed over the same operations
// report identical work counts, with every operation correct.
func TestCountsRepeat(t *testing.T) {
	ops := map[string]int{"verify-cold": 48, "session-warm": 60}
	for name, n := range ops {
		counts := func() map[string]float64 {
			e, _ := setup(t, name, 3, true)
			ph, err := e.run(0, n)
			if err != nil {
				t.Fatal(err)
			}
			e.close()
			for _, o := range ph.ops {
				if o.err != nil {
					t.Fatalf("%s: %v", name, o.err)
				}
			}
			if len(ph.problems) > 0 {
				t.Fatalf("%s: %v", name, ph.problems)
			}
			l, err := e.layers(ph)
			if err != nil {
				t.Fatal(err)
			}
			out := make(map[string]float64)
			for _, k := range exactCounts {
				out[k] = l[k]
			}
			return out
		}
		a, b := counts(), counts()
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: counts differ between runs of one seed:\n%v\n%v", name, a, b)
		}
		t.Logf("%s: %v", name, a)
	}
}

// TestBenchmarkJSONMatches: BENCHMARK.json lists exactly the workloads and
// per-layer metrics the program reports.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("workloads %v, program has %v", names, want)
	}
	if len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics listed, program reports %d", len(doc.PerLayer), len(perLayer))
	}
	for i, l := range perLayer {
		better := "lower"
		if l.higher {
			better = "higher"
		}
		if got := doc.PerLayer[i]; got.Name != l.name || got.Unit != l.unit || got.Better != better {
			t.Errorf("per_layer[%d] = %+v, program reports %s %s %s", i, got, l.name, l.unit, better)
		}
	}
	ph := &phase{ops: []op{{}}, wall: time.Second}
	got := workloads[0].endToEnd(ph)
	got["setup_s"] = metric{0, "s"}
	for _, m := range doc.EndToEnd {
		if g, ok := got[m.Name]; !ok || g.Unit != m.Unit {
			t.Errorf("end-to-end %s %s not reported as listed", m.Name, m.Unit)
		}
		delete(got, m.Name)
	}
	if len(got) > 0 {
		t.Errorf("reported but not listed: %v", got)
	}
}
