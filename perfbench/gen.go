package main

import (
	"fmt"
	"math/rand"
	"time"

	"deflection/internal/ccaas"
)

// newRand returns the seeded stream number k of a run; workloads draw
// schedule, program order and inputs from separate streams so changing one
// leaves the others intact.
func newRand(seed int64, k int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + k))
}

// cycler yields seeded permutations of [0,n) back to back, so any n
// consecutive draws of one permutation cover every index once. A value is
// never drawn twice in a row, even across a permutation boundary.
type cycler struct {
	rng  *rand.Rand
	n    int
	perm []int
	last int
}

func newCycler(rng *rand.Rand, n int) *cycler { return &cycler{rng: rng, n: n, last: -1} }

func (c *cycler) next() int {
	if len(c.perm) == 0 {
		c.perm = c.rng.Perm(c.n)
		if c.n > 1 && c.perm[0] == c.last {
			c.perm[0], c.perm[c.n-1] = c.perm[c.n-1], c.perm[0]
		}
	}
	v := c.perm[0]
	c.perm = c.perm[1:]
	c.last = v
	return v
}

// blocks marks one "rare" slot at a seeded position in every block of size
// consecutive draws: exactly 1/size of the draws are rare.
type blocks struct {
	rng       *rand.Rand
	size, pos int
	rare      int
}

func (b *blocks) next() bool {
	if b.pos%b.size == 0 {
		b.rare = b.rng.Intn(b.size)
	}
	r := b.pos%b.size == b.rare
	b.pos++
	return r
}

// poissonSchedule returns the arrival offsets of n sessions at rate per
// second: a Poisson process conditioned on n arrivals within n/rate
// seconds, so every run of a workload offers the same load.
func poissonSchedule(rng *rand.Rand, rate float64, n int) []time.Duration {
	gaps := make([]float64, n+1)
	total := 0.0
	for i := range gaps {
		gaps[i] = rng.ExpFloat64()
		total += gaps[i]
	}
	span := float64(n) / rate * float64(time.Second)
	out := make([]time.Duration, n)
	t := 0.0
	for i := range out {
		t += gaps[i]
		out[i] = time.Duration(t / total * span)
	}
	return out
}

// job is one session's input: the binary to submit, the data messages and
// the known answer of the run.
type job struct {
	prog   *program
	inputs [][]byte
	label  string                      // program and parameters, for errors
	check  func(*ccaas.RunReply) error // nil for binaries that must be rejected
}

// sumJob runs the sum service on n seeded bytes.
func sumJob(p *program, rng *rand.Rand) job {
	in := make([]byte, 1+rng.Intn(64))
	var want int64
	for i := range in {
		in[i] = byte(rng.Intn(256))
		want += int64(in[i])
	}
	return job{prog: p, inputs: [][]byte{in}, label: fmt.Sprintf("sum/%d", len(in)),
		check: func(rr *ccaas.RunReply) error { return checkInt(rr, want) }}
}
