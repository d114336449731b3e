package icfgpatch_test

import (
	"os/exec"
	"testing"
)

// TestBenchmarkModuleVets compiles and vets the benchmark harness.
// icfgbench/ is a nested module, so the root `./...` pattern never
// reaches it; without this test a change that breaks the API the
// harness uses would fail only when the benchmark runs. It runs vet
// rather than build because `go build ./...` there would drop an
// icfgbench binary into the tree.
func TestBenchmarkModuleVets(t *testing.T) {
	gobin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go command not on PATH")
	}
	if out, err := exec.Command(gobin, "-C", "icfgbench", "vet", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go -C icfgbench vet ./...: %v\n%s", err, out)
	}
}
