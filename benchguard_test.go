package icfgpatch_test

import (
	"os/exec"
	"strings"
	"testing"
)

// runGuard executes scripts/benchguard.sh with the given inner command.
func runGuard(t *testing.T, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command("sh", append([]string{"scripts/benchguard.sh"}, args...)...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// TestBenchguard pins the Makefile bench targets' failure contract: the
// wrapper must propagate the inner command's failure and must reject
// runs whose output contains no benchmark result line — `go test -bench
// X` exits 0 when X matches nothing, which used to turn bench-warm and
// bench-delta into silent no-ops after a benchmark rename.
func TestBenchguard(t *testing.T) {
	t.Run("passes-with-benchmark-line", func(t *testing.T) {
		out, err := runGuard(t, "printf", "BenchmarkFoo\t10\t100 ns/op\\nPASS\\n")
		if err != nil {
			t.Fatalf("guard rejected a successful benchmark run: %v\n%s", err, out)
		}
	})
	t.Run("fails-on-zero-benchmarks", func(t *testing.T) {
		out, err := runGuard(t, "printf", "PASS\\nok  \\tsomething\\t0.01s\\n")
		if err == nil {
			t.Fatalf("guard accepted a run that matched no benchmarks:\n%s", out)
		}
		if !strings.Contains(out, "no benchmark ran") {
			t.Fatalf("missing diagnostic, got:\n%s", out)
		}
	})
	t.Run("propagates-command-failure", func(t *testing.T) {
		out, err := runGuard(t, "sh", "-c", "echo 'BenchmarkFoo 1 1 ns/op'; exit 3")
		ee, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("want exit error despite benchmark line in output, got %v\n%s", err, out)
		}
		if ee.ExitCode() != 3 {
			t.Fatalf("want inner status 3 propagated, got %d\n%s", ee.ExitCode(), out)
		}
	})
	t.Run("echoes-inner-output", func(t *testing.T) {
		out, err := runGuard(t, "printf", "BenchmarkBar\t5\t7 ns/op\\n")
		if err != nil {
			t.Fatalf("guard failed: %v", err)
		}
		if !strings.Contains(out, "BenchmarkBar") {
			t.Fatalf("inner output swallowed:\n%s", out)
		}
	})
}
