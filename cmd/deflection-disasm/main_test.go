package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"deflection/internal/apps"
	"deflection/internal/compiler"
	"deflection/internal/dclib"
	"deflection/internal/policy"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain runs the command itself when the test binary is re-executed by
// runCLI, so the goldens cover flag parsing, output and exit status.
func TestMain(m *testing.M) {
	if os.Getenv("DEFLECTION_DISASM_RUN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCLI runs deflection-disasm with args and returns its standard output
// and exit status.
func runCLI(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "DEFLECTION_DISASM_RUN=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return stdout.Bytes(), code
}

// TestGoldenOutput pins the verified listing and the CFG renderings of the
// seqgen service compiled under P1–P6.
func TestGoldenOutput(t *testing.T) {
	o, err := compiler.Compile(dclib.Program(apps.SeqGenSource), compiler.Options{Policies: policy.SetP1P6})
	if err != nil {
		t.Fatal(err)
	}
	dfo := filepath.Join(t.TempDir(), "seqgen.dfo")
	if err := os.WriteFile(dfo, o.Marshal(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"listing_golden.txt", []string{"-verify", "p1-p6", dfo}},
		{"cfg_golden.txt", []string{"-cfg", "text", dfo}},
		{"cfg_dot_golden.txt", []string{"-cfg", "dot", dfo}},
		{"taint_dot_golden.txt", []string{"-taint", "-cfg", "dot", dfo}},
		{"order_dot_golden.txt", []string{"-order", "-cfg", "dot", dfo}},
	} {
		got, code := runCLI(t, c.args...)
		if code != 0 {
			t.Errorf("%v: exit %d, want 0", c.args, code)
		}
		path := filepath.Join("testdata", c.golden)
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run with -update): %v", err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%v: output differs from %s", c.args, path)
		}
	}
}
