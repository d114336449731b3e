// Command icfg-experiments reproduces the paper's evaluation tables and
// figures on the synthetic workload suite and prints them.
//
// The Table 3 sweep runs its independent (benchmark, approach) cells on
// a worker pool (-jobs); the aggregated tables are byte-identical to a
// serial run. Every failed rewrite or verification is reported on
// stderr and reflected in a non-zero exit status, in addition to being
// printed in the tables.
//
// Usage:
//
//	icfg-experiments [-run all|table1|table2|table3|figure1|figure2|firefox|docker|bolt|diogenes|incremental|profile|landingpads]
//	                 [-arch x64|ppc|a64|all] [-jobs N] [-metrics] [-trace]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/experiments"
	"icfgpatch/internal/workload"
)

// knownRuns are the -run values; validated up front so a typo'd
// selector is a usage error instead of a silent empty (and successful-
// looking) run.
var knownRuns = []string{
	"all", "table1", "table2", "table3", "figure1", "figure2",
	"firefox", "docker", "bolt", "diogenes", "ablation", "trampolines",
	"incremental", "profile", "landingpads",
}

func main() {
	runSel := flag.String("run", "all", "experiment to run: "+strings.Join(knownRuns, ", "))
	archSel := flag.String("arch", "all", "architecture for table3/incremental: x64, ppc, a64, all")
	jobs := flag.Int("jobs", 0, "worker count for the table3 sweep (0 = one per CPU, 1 = serial)")
	metrics := flag.Bool("metrics", false, "print aggregated per-pass rewrite metrics after table3 and workload cache stats at exit")
	trace := flag.Bool("trace", false, "print each rewrite's span tree (table3 and ablation cells)")
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "icfg-experiments:", err)
		flag.PrintDefaults()
		os.Exit(2)
	}
	known := false
	for _, r := range knownRuns {
		known = known || r == *runSel
	}
	if !known {
		usage(fmt.Errorf("unknown experiment %q (want one of %s)", *runSel, strings.Join(knownRuns, ", ")))
	}
	var arches []arch.Arch
	if strings.ToLower(*archSel) == "all" {
		arches = arch.All()
	} else {
		a, err := arch.Parse(strings.ToLower(*archSel))
		if err != nil {
			usage(err)
		}
		arches = []arch.Arch{a}
	}
	if *trace {
		experiments.SetTrace(os.Stdout)
	}

	want := func(name string) bool { return *runSel == "all" || *runSel == name }
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "icfg-experiments:", err)
		os.Exit(1)
	}
	// Failed cells are reported per run (the graceful-failure contract):
	// the sweep continues, stderr lists each failure, and the process
	// exits non-zero so callers cannot mistake a failing sweep for a
	// clean one.
	failedRuns := 0
	report := func(failures []string) {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "icfg-experiments: FAILED run:", f)
		}
		failedRuns += len(failures)
	}

	if want("table1") {
		fmt.Println(experiments.Table1Render())
	}
	if want("table2") {
		fmt.Println(experiments.Table2Render())
	}
	if want("figure1") {
		out, err := experiments.Figure1Render()
		if err != nil {
			fail(err)
		}
		fmt.Println(out)
	}
	if want("figure2") {
		res, err := experiments.Figure2()
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	}
	if want("table3") {
		for _, a := range arches {
			res, err := experiments.Table3ForArchParallel(a, *jobs)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			if *metrics {
				fmt.Println(res.MetricsRender())
			}
			report(res.Failures())
		}
	}
	if want("firefox") {
		res, err := experiments.Firefox()
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
		report(res.Failures())
	}
	if want("docker") {
		res, err := experiments.Docker()
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
		report(res.Failures())
	}
	if want("bolt") {
		res, err := experiments.BOLTComparison()
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	}
	if want("diogenes") {
		res, err := experiments.Diogenes()
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
		report(res.Failures())
	}
	if want("ablation") {
		res, err := experiments.Ablation(arch.PPC)
		if err != nil {
			fail(err)
		}
		fmt.Println(res.Render())
	}
	if want("incremental") {
		for _, a := range arches {
			res, err := experiments.Incremental(a)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			report(res.Failures())
		}
	}
	if want("profile") {
		for _, a := range arches {
			res, err := experiments.ProfileGuided(a)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			report(res.Failures())
		}
	}
	if want("landingpads") {
		for _, a := range arches {
			res, err := experiments.LandingPads(a)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
			report(res.Failures())
		}
	}
	if want("trampolines") {
		for _, a := range arch.All() {
			res, err := experiments.Trampolines(a)
			if err != nil {
				fail(err)
			}
			fmt.Println(res.Render())
		}
	}

	if *metrics {
		fmt.Printf("workload cache: %s\n", workload.CacheStats())
	}
	if failedRuns > 0 {
		fmt.Fprintf(os.Stderr, "icfg-experiments: %d failed run(s)\n", failedRuns)
		os.Exit(1)
	}
}
