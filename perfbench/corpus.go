package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"time"

	"deflection/internal/apps"
	"deflection/internal/ccaas"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/nbench"
	"deflection/internal/policy"
	"deflection/internal/runtime"
	"deflection/internal/verifier"
)

// verdict is the known answer for one submitted binary.
type verdict int

const (
	accept    verdict = iota
	violation         // uninstrumented code whose mask claims P1–P8
	mismatch          // honestly compiled for P1–P6 only
)

// check compares a plane rejection (nil = accepted) with the known answer.
func (v verdict) check(reject error) error {
	switch v {
	case accept:
		if reject != nil {
			return fmt.Errorf("want accept, got %v", reject)
		}
	case violation:
		if !errors.Is(reject, verifier.ErrViolation) {
			return fmt.Errorf("want a verifier violation, got %v", reject)
		}
	case mismatch:
		if !errors.Is(reject, runtime.ErrPolicyMismatch) {
			return fmt.Errorf("want a policy-mask mismatch, got %v", reject)
		}
	}
	return nil
}

// checkWire is check for a rejection that crossed the sealed channel as
// text: the error class survives as the sentinel's message.
func (v verdict) checkWire(err error) error {
	switch v {
	case accept:
		if err != nil {
			return fmt.Errorf("want accept, got %v", err)
		}
		return nil
	case violation:
		if err != nil && strings.Contains(err.Error(), verifier.ErrViolation.Error()) {
			return nil
		}
		return fmt.Errorf("want a verifier violation, got %v", err)
	default:
		if err != nil && strings.Contains(err.Error(), runtime.ErrPolicyMismatch.Error()) {
			return nil
		}
		return fmt.Errorf("want a policy-mask mismatch, got %v", err)
	}
}

// program is one compiled binary and the verdict it must receive.
type program struct {
	name string
	obj  []byte
	hash [32]byte
	want verdict
}

// source is one DC program the corpus compiles.
type source struct {
	name string
	src  string
}

// permissiveProtocol admits every interface event the DC builtins emit, so
// a program carrying it stays accepted while P8 runs its full fixpoint.
const permissiveProtocol = `
protocol {
    state run attested;
    state end attested;
    run: send -> run;
    run: recv -> run;
    run: print -> run;
    run: tid -> run;
    run: hlt -> end;
}
`

// sumSource is the tiny session service: it sums the bytes of one input.
const sumSource = `
char buf[64];
int main() {
	int n = __ocall_recv(buf, 64);
	int s = 0;
	for (int i = 0; i < n; i++) s += (int)buf[i];
	send_int(s);
	return s;
}`

// appSources are the real applications: nw and credit carry secret
// globals, so P7 analyses them.
func appSources() []source {
	return []source{
		{"nw", apps.NWSource},
		{"seqgen", apps.SeqGenSource},
		{"credit", apps.CreditSource},
	}
}

// kernelSources are the ten nBench kernels.
func kernelSources() []source {
	var out []source
	for _, k := range nbench.Kernels() {
		out = append(out, source{k.Name, k.Source})
	}
	return out
}

// builder compiles programs and accounts the compiler's time.
type builder struct {
	compile time.Duration
}

// build compiles src for want: P1–P8 for accept, P1–P6 for mismatch, and an
// uninstrumented build with a forged P1–P8 mask for violation.
func (b *builder) build(name, src string, want verdict) (*program, error) {
	pols := policy.SetP1P8
	switch want {
	case mismatch:
		pols = policy.SetP1P6
	case violation:
		pols = policy.SetNone
	}
	start := time.Now()
	o, err := compiler.Compile(dclib.Program(src), compiler.Options{Policies: pols})
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", name, err)
	}
	if want == violation {
		o.PolicyMask = uint16(policy.SetP1P8)
	}
	obj := o.Marshal()
	b.compile += time.Since(start)
	return &program{name: name, obj: obj, hash: sha256.Sum256(obj), want: want}, nil
}

// buildAll compiles every source for want, optionally behind the permissive
// protocol block (names gain a "-proto" suffix).
func (b *builder) buildAll(srcs []source, proto bool, want verdict) ([]*program, error) {
	var out []*program
	for _, s := range srcs {
		name, src := s.name, s.src
		if proto {
			name, src = name+"-proto", permissiveProtocol+src
		}
		p, err := b.build(name, src, want)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// outputs unpads the run's output frames.
func outputs(rr *ccaas.RunReply) ([][]byte, error) {
	out := make([][]byte, len(rr.Outputs))
	for i, f := range rr.Outputs {
		msg, err := runtime.Unpad(f)
		if err != nil {
			return nil, err
		}
		out[i] = msg
	}
	return out, nil
}

// checkInt checks a run that halted with exit want and whose last output is
// the 8-byte integer want.
func checkInt(rr *ccaas.RunReply, want int64) error {
	if rr.Trapped {
		return fmt.Errorf("trapped: %s", rr.TrapReason)
	}
	if rr.Exit != want {
		return fmt.Errorf("exit %d, want %d", rr.Exit, want)
	}
	outs, err := outputs(rr)
	if err != nil {
		return err
	}
	if len(outs) == 0 || len(outs[len(outs)-1]) != 8 {
		return fmt.Errorf("no integer output")
	}
	if got := int64(binary.LittleEndian.Uint64(outs[len(outs)-1])); got != want {
		return fmt.Errorf("output %d, want %d", got, want)
	}
	return nil
}
