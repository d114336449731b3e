package experiments

import (
	"strings"
	"sync/atomic"
	"testing"

	"icfgpatch/internal/arch"
)

// TestTable3ParallelMatchesSerial is the determinism gate for the
// parallel pipeline: the table rendered from a four-worker sweep must be
// byte-identical to the one-worker (serial) run of the same runner.
func TestTable3ParallelMatchesSerial(t *testing.T) {
	t.Parallel()
	serial, err := Table3ForArch(arch.A64, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Table3ForArch(arch.A64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if serial.Render() != parallel.Render() {
		t.Errorf("parallel sweep diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial.Render(), parallel.Render())
	}
	for i, ap := range serial.Approaches {
		pp := parallel.Approaches[i]
		if len(ap.Runs) != len(pp.Runs) {
			t.Fatalf("%s: run count %d vs %d", ap.Name, len(ap.Runs), len(pp.Runs))
		}
		for j := range ap.Runs {
			if ap.Runs[j].Bench != pp.Runs[j].Bench || ap.Runs[j].Pass != pp.Runs[j].Pass ||
				ap.Runs[j].Overhead != pp.Runs[j].Overhead {
				t.Errorf("%s/%s: run %d differs between serial and parallel",
					ap.Name, ap.Runs[j].Bench, j)
			}
		}
	}
}

// TestRunIndexedCoversAll checks the work distribution: every index is
// executed exactly once for serial, saturated, and oversubscribed job
// counts.
func TestRunIndexedCoversAll(t *testing.T) {
	for _, jobs := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int64
		runIndexed(n, jobs, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("jobs=%d: index %d executed %d times", jobs, i, got)
			}
		}
	}
}

// TestTable3RenderZeroPassNA pins the aggregation contract for an
// approach with zero passing runs: the undefined aggregates render as
// n/a, never as a measured 0.00%, and aggregation itself must not
// divide by zero or take a min over an empty set.
func TestTable3RenderZeroPassNA(t *testing.T) {
	runs := []Table3Run{
		{Bench: "600.perlbench_s", Pass: false, Reason: "rewrite failed: synthetic", Coverage: -1},
		{Bench: "602.gcc_s", Pass: false, Reason: "rewrite failed: synthetic", Coverage: -1},
	}
	row := table3Aggregate("broken", runs)
	if row.Pass != 0 || row.Total != 2 {
		t.Fatalf("pass/total = %d/%d, want 0/2", row.Pass, row.Total)
	}
	if row.TimeSamples != 0 || row.CovSamples != 0 {
		t.Fatalf("samples = %d/%d, want 0/0", row.TimeSamples, row.CovSamples)
	}
	res := &Table3Result{Arch: arch.X64, Approaches: []Table3Approach{row}}
	out := res.Render()
	if !strings.Contains(out, "n/a") {
		t.Errorf("zero-passing approach did not render n/a:\n%s", out)
	}
	if strings.Contains(out, "0.00%") {
		t.Errorf("zero-passing approach rendered a fake measured 0.00%%:\n%s", out)
	}
	if !strings.Contains(out, "0/2") {
		t.Errorf("pass column missing 0/2:\n%s", out)
	}
}

// TestTable3FailuresListsFailedCells checks the exit-status feed: every
// failed cell appears as an arch/approach/bench line.
func TestTable3FailuresListsFailedCells(t *testing.T) {
	res := &Table3Result{Arch: arch.PPC, Approaches: []Table3Approach{
		{Name: "SRBI", Runs: []Table3Run{
			{Bench: "620.omnetpp_s", Pass: false, Reason: "output diverged"},
			{Bench: "625.x264_s", Pass: true},
		}},
	}}
	got := res.Failures()
	if len(got) != 1 {
		t.Fatalf("Failures() = %v, want one entry", got)
	}
	if want := "ppc/SRBI/620.omnetpp_s: output diverged"; got[0] != want {
		t.Errorf("Failures()[0] = %q, want %q", got[0], want)
	}
}
