package experiments

import (
	"strings"
	"testing"

	"icfgpatch/internal/arch"
	"icfgpatch/internal/workload"
)

// TestTable3X64Shape asserts the paper's Table 3 qualitative claims on
// x86-64: overhead ordering SRBI > dir > jt > func-ptr ≈ 0; SRBI fails
// the two C++ exception benchmarks while every incremental mode passes
// all 19; coverage 100% for the incremental modes and lower for SRBI;
// IR lowering has near-zero overhead and small size but fails the
// exception benchmarks.
func TestTable3X64Shape(t *testing.T) {
	t.Parallel()
	res, err := Table3ForArch(arch.X64, 1)
	if err != nil {
		t.Fatal(err)
	}
	ap := map[string]Table3Approach{}
	for _, a := range res.Approaches {
		ap[a.Name] = a
	}

	srbi, dir, jt, fp := ap["SRBI"], ap["dir"], ap["jt"], ap["func-ptr"]
	irl := ap["IR lowering"]

	if !(srbi.TimeMean > dir.TimeMean && dir.TimeMean > jt.TimeMean && jt.TimeMean >= fp.TimeMean) {
		t.Errorf("overhead ordering violated: srbi=%v dir=%v jt=%v fp=%v",
			srbi.TimeMean, dir.TimeMean, jt.TimeMean, fp.TimeMean)
	}
	if fp.TimeMean > 0.005 {
		t.Errorf("func-ptr mean overhead %v, want close to zero", fp.TimeMean)
	}
	for _, m := range []Table3Approach{dir, jt, fp} {
		if m.Pass != 19 {
			t.Errorf("%s passed %d/19", m.Name, m.Pass)
		}
		if m.CovMean != 1 {
			t.Errorf("%s coverage mean %v, want 100%% on x64", m.Name, m.CovMean)
		}
	}
	if srbi.Pass != 17 {
		t.Errorf("SRBI passed %d, want 17 (the two C++ exception benchmarks fail)", srbi.Pass)
	}
	for _, r := range srbi.Runs {
		failed := !r.Pass
		isExc := r.Bench == "620.omnetpp_s" || r.Bench == "623.xalancbmk_s"
		if failed != isExc {
			t.Errorf("SRBI %s: pass=%v (exceptions=%v)", r.Bench, r.Pass, isExc)
		}
	}
	if srbi.CovMean >= 1 || srbi.CovMin >= 1 {
		t.Error("SRBI coverage must be below 100% (strict bounds, no tail-call rescue)")
	}
	if irl.Pass != 17 {
		t.Errorf("IR lowering passed %d, want 17", irl.Pass)
	}
	if irl.TimeMean > 0.002 {
		t.Errorf("IR lowering overhead %v, want ~0", irl.TimeMean)
	}
	if irl.SizeMean > 0.2 || irl.SizeMean >= jt.SizeMean {
		t.Errorf("IR lowering size %v must be far below patching-based %v", irl.SizeMean, jt.SizeMean)
	}
	if jt.SizeMean < 0.4 || jt.SizeMean > 1.2 {
		t.Errorf("jt size increase %v outside the paper's 60-105%% band", jt.SizeMean)
	}
	if out := res.Render(); !strings.Contains(out, "jt") || !strings.Contains(out, "pass") {
		t.Error("render output malformed")
	}
}

// TestTable3PPCShape asserts the PPC-specific claims: trap-heavy SRBI
// (prohibitive overhead with the ±32MB branch range exceeded), and
// sub-100% coverage for the incremental modes (hard embedded jump
// tables) that still beats SRBI's.
func TestTable3PPCShape(t *testing.T) {
	t.Parallel()
	res, err := Table3ForArch(arch.PPC, 1)
	if err != nil {
		t.Fatal(err)
	}
	ap := map[string]Table3Approach{}
	for _, a := range res.Approaches {
		ap[a.Name] = a
	}
	srbi, dir, jt := ap["SRBI"], ap["dir"], ap["jt"]
	if srbi.TimeMean < 0.20 {
		t.Errorf("SRBI ppc mean overhead %v — expected prohibitive (trap trampolines)", srbi.TimeMean)
	}
	if jt.TimeMean > 0.05 {
		t.Errorf("jt ppc mean overhead %v, want small (long/multi-hop trampolines instead of traps)", jt.TimeMean)
	}
	if dir.CovMean >= 1 {
		t.Error("ppc coverage must be below 100% (embedded jump tables resist analysis)")
	}
	if dir.CovMean <= srbi.CovMean {
		t.Errorf("our ppc coverage %v must beat SRBI's %v", dir.CovMean, srbi.CovMean)
	}
	if dir.Pass != 19 || jt.Pass != 19 {
		t.Errorf("incremental modes must pass 19/19 on ppc: dir=%d jt=%d", dir.Pass, jt.Pass)
	}
	// SRBI's size on ppc exceeds ours (trap machinery), as in the paper.
	if srbi.SizeMean <= jt.SizeMean {
		t.Logf("note: SRBI ppc size %v vs jt %v (paper had SRBI much larger)", srbi.SizeMean, jt.SizeMean)
	}
}

func TestFirefoxShape(t *testing.T) {
	t.Parallel()
	res, err := Firefox()
	if err != nil {
		t.Fatal(err)
	}
	modes := map[string]FirefoxMode{}
	for _, m := range res.Modes {
		modes[m.Mode] = m
	}
	if !modes["dir"].Failed {
		t.Error("dir mode must fail on libxul (trap trampolines in destructors)")
	}
	jt, fp := modes["jt"], modes["func-ptr"]
	for _, m := range []FirefoxMode{jt, fp} {
		if m.Failed {
			t.Fatalf("%s failed: %s", m.Mode, m.Reason)
		}
		if m.Coverage < 0.99 || m.Coverage == 1 {
			t.Errorf("%s coverage %v, want 99.x%%", m.Mode, m.Coverage)
		}
		if m.LatencyMean < 0 || m.LatencyMean > 0.08 {
			t.Errorf("%s latency overhead %v outside the paper's band", m.Mode, m.LatencyMean)
		}
		if m.Traps != 0 {
			t.Errorf("%s installed %d traps; jump table cloning should remove them", m.Mode, m.Traps)
		}
		if m.SizeInc < 0.4 {
			t.Errorf("%s size increase %v too small", m.Mode, m.SizeInc)
		}
	}
	if fp.LatencyMean > jt.LatencyMean {
		t.Errorf("func-ptr latency %v must not exceed jt %v", fp.LatencyMean, jt.LatencyMean)
	}
}

func TestDockerShape(t *testing.T) {
	t.Parallel()
	res, err := Docker()
	if err != nil {
		t.Fatal(err)
	}
	if !res.DirEqualsJT {
		t.Error("dir and jt must coincide for Go binaries (no jump tables)")
	}
	if !res.FuncPtrFailed {
		t.Errorf("func-ptr must refuse the Go function table: %s", res.FuncPtrReason)
	}
	if res.CommandsOK != res.Commands {
		t.Errorf("commands correct %d/%d", res.CommandsOK, res.Commands)
	}
	if res.TracebackWalks == 0 {
		t.Error("no Go runtime stack walks exercised")
	}
	if res.Coverage != 1 {
		t.Errorf("docker coverage %v, want 100%%", res.Coverage)
	}
	if res.MeanOverhead < 0 || res.MeanOverhead > 0.15 {
		t.Errorf("docker mean overhead %v outside the paper's band (6.98%%)", res.MeanOverhead)
	}
}

func TestBOLTShape(t *testing.T) {
	t.Parallel()
	res, err := BOLTComparison()
	if err != nil {
		t.Fatal(err)
	}
	if res.FuncBOLTPass != 0 {
		t.Errorf("BOLT reordered functions for %d benchmarks without link relocations", res.FuncBOLTPass)
	}
	if !strings.Contains(res.FuncBOLTErr, "relocations are enabled") {
		t.Errorf("BOLT error message %q", res.FuncBOLTErr)
	}
	if res.FuncOursPass != res.Total || res.BlockOursPass != res.Total {
		t.Errorf("ours must reorder all %d: funcs=%d blocks=%d", res.Total, res.FuncOursPass, res.BlockOursPass)
	}
	if res.BlockBOLTPass == 0 || res.BlockBOLTPass == res.Total {
		t.Errorf("BOLT block reordering passed %d/%d; the paper saw partial corruption (9/19)", res.BlockBOLTPass, res.Total)
	}
}

func TestDiogenesShape(t *testing.T) {
	t.Parallel()
	res, err := Diogenes()
	if err != nil {
		t.Fatal(err)
	}
	if !res.MainstreamOK {
		t.Fatal("mainstream run failed")
	}
	if res.Speedup < 3 {
		t.Errorf("speedup %.1fx, want the order-of-magnitude improvement of the paper (60x)", res.Speedup)
	}
	if res.OursTraps != 0 {
		t.Errorf("our rewrite installed %d traps; trampoline placement should avoid them", res.OursTraps)
	}
	if res.MainstreamTraps == 0 {
		t.Error("mainstream rewrite installed no traps; the case study's mechanism is missing")
	}
	if res.TotalFuncs < 1000 || res.Instrumented > res.TotalFuncs/10 {
		t.Errorf("partial instrumentation scale wrong: %d of %d", res.Instrumented, res.TotalFuncs)
	}
	if res.EgalitoErr == "" {
		t.Error("Egalito must fail on libcuda (symbol versioning)")
	}
}

func TestFigure2Shape(t *testing.T) {
	t.Parallel()
	res, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if res.AnalysisCoverage >= 1 || res.AnalysisCoverage <= 0 {
		t.Errorf("analysis-failure coverage %v, want partial", res.AnalysisCoverage)
	}
	if !res.AnalysisCorrect {
		t.Error("analysis failure must not affect other functions")
	}
	if res.OverApproxExtraEntries <= 0 {
		t.Error("over-approximation produced no extra cloned entries")
	}
	if !res.OverApproxCorrect {
		t.Error("over-approximation must not break correctness (cloning)")
	}
	if !res.UnderApproxDetected {
		t.Errorf("forced under-approximation must be caught by verification: %s", res.UnderApproxFault)
	}
	if out := res.Render(); !strings.Contains(out, "under-approximation") {
		t.Error("render malformed")
	}
}

func TestStaticRenders(t *testing.T) {
	if out := Table1Render(); !strings.Contains(out, "Our work") || !strings.Contains(out, "E9Patch") {
		t.Error("Table 1 render malformed")
	}
	if out := Table2Render(); !strings.Contains(out, "bctar") || !strings.Contains(out, "adrp") {
		t.Error("Table 2 render malformed")
	}
	out, err := Figure1Render()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{".instr", ".ra_map", ".tramp_map", ".rodata.icfg", "retired"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 render missing %q", want)
		}
	}
}

// TestAblationShape asserts each design choice's measurable
// contribution on the trampoline-stressed PPC configuration.
func TestAblationShape(t *testing.T) {
	t.Parallel()
	res, err := Ablation(arch.PPC)
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]AblationRow{}
	for _, r := range res.Rows {
		rows[r.Name] = r
	}
	full := rows["full system"]
	if full.Traps != 0 {
		t.Errorf("full system installed %d traps on ppc; placement analysis should avoid them", full.Traps)
	}
	noSB := rows["- superblocks"]
	if noSB.Traps <= full.Traps || noSB.Overhead <= 4*full.Overhead {
		t.Errorf("removing superblocks must cost traps and overhead: traps=%d overhead=%v", noSB.Traps, noSB.Overhead)
	}
	noBoth := rows["- superblocks & scratch"]
	if noBoth.Traps <= noSB.Traps {
		t.Errorf("retired-section scratch must absorb some multi-hops: %d vs %d traps", noBoth.Traps, noSB.Traps)
	}
	if rows["- bound extension"].Coverage >= full.Coverage {
		t.Error("removing bound extension must cost coverage")
	}
	if rows["- tail call heuristic"].Coverage >= full.Coverage {
		t.Error("removing the tail call heuristic must cost coverage")
	}
	every := rows["- CFL placement (every block)"]
	if every.Traps <= noSB.Traps {
		t.Errorf("per-block placement must install the most traps: %d", every.Traps)
	}
	for _, r := range res.Rows {
		if r.Pass != r.Total {
			t.Errorf("%s: pass %d/%d — ablations change cost, not correctness", r.Name, r.Pass, r.Total)
		}
	}
	if out := res.Render(); !strings.Contains(out, "superblocks") {
		t.Error("render malformed")
	}
}

// TestTrampolineDistribution asserts the trampoline-class mechanics:
// x64 uses only the 5-byte long branch, ppc with a 40MB gap needs long
// (TOC) sequences and multi-hops but dir mode has more of the scarce
// cases (jump-table target blocks are small), a64's ±128MB branch
// reaches with the short form everywhere.
func TestTrampolineDistribution(t *testing.T) {
	t.Parallel()
	x, err := Trampolines(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	for mode, counts := range x.Rows {
		if counts[arch.TrampShort] != 0 || counts[arch.TrampTrap] != 0 {
			t.Errorf("x64 %s: unexpected classes %v (5-byte branch always reaches)", mode, counts)
		}
		if counts[arch.TrampLong] == 0 {
			t.Errorf("x64 %s: no trampolines at all", mode)
		}
	}
	p, err := Trampolines(arch.PPC)
	if err != nil {
		t.Fatal(err)
	}
	dir, jt := p.Rows["dir"], p.Rows["jt"]
	if dir[arch.TrampLong]+dir[arch.TrampLongSpill]+dir[arch.TrampMulti] == 0 {
		t.Errorf("ppc dir: no long-range forms despite the gap: %v", dir)
	}
	if dirTotal, jtTotal := total(dir), total(jt); jtTotal >= dirTotal {
		t.Errorf("ppc: jt must install fewer trampolines than dir (%d vs %d)", jtTotal, dirTotal)
	}
	a, err := Trampolines(arch.A64)
	if err != nil {
		t.Fatal(err)
	}
	for mode, counts := range a.Rows {
		if counts[arch.TrampShort] == 0 {
			t.Errorf("a64 %s: ±128MB branch should dominate: %v", mode, counts)
		}
		if counts[arch.TrampTrap] != 0 {
			t.Errorf("a64 %s: traps installed: %v", mode, counts)
		}
	}
	if out := p.Render(); !strings.Contains(out, "dir") {
		t.Error("render malformed")
	}
}

func total(m map[arch.TrampolineClass]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

// TestProfileGuidedShape asserts the multi-version follow-on's headline
// claim on a variable-width and a fixed-width architecture: with a
// captured profile, counter instrumentation costs measurably fewer
// emulated cycles than the unguided rewrite on the same suite, every
// benchmark still produces the original output, and the guided plans
// actually split hot functions into variants (a ratio below 1 with zero
// variants would mean the win came from somewhere else).
func TestProfileGuidedShape(t *testing.T) {
	t.Parallel()
	for _, a := range []arch.Arch{arch.X64, arch.A64} {
		res, err := ProfileGuided(a)
		if err != nil {
			t.Fatal(err)
		}
		if res.Pass != res.Total {
			for _, f := range res.Failures() {
				t.Error(f)
			}
			t.Fatalf("%s: %d/%d benchmarks passed", a, res.Pass, res.Total)
		}
		variants := 0
		for _, r := range res.Runs {
			variants += r.VariantFuncs
			if r.HotFuncs < r.VariantFuncs {
				t.Errorf("%s %s: %d variants from %d hot funcs", a, r.Bench, r.VariantFuncs, r.HotFuncs)
			}
		}
		if variants == 0 {
			t.Fatalf("%s: no benchmark planned any fast variants", a)
		}
		if res.GuidedMean >= res.UnguidedMean {
			t.Errorf("%s: guided overhead %v not below unguided %v", a, res.GuidedMean, res.UnguidedMean)
		}
		if res.Ratio <= 0 || res.Ratio >= 0.9 {
			t.Errorf("%s: guided/unguided ratio %.3f, want a clear (>10%%) win", a, res.Ratio)
		}
		if out := res.Render(); !strings.Contains(out, "ratio") || !strings.Contains(out, "variants") {
			t.Error("render malformed")
		}
	}
}

// TestProfileGuidedRatioBounds bounds the guided/unguided overhead
// ratio of one capture → rewrite → re-run loop on four workloads that
// span the profile-guided design's range: a large x64 library, a
// command-dispatch binary, a stripped library (heat without symbols)
// and an a64 SPEC-like benchmark. The emulator's cycle counts are
// deterministic, so each ratio reproduces exactly; the bound is 1.75×
// the ratio first recorded, so a change must lose a large share of
// the guidance win before it trips.
func TestProfileGuidedRatioBounds(t *testing.T) {
	t.Parallel()
	libxul, err := workload.LibxulCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	docker, err := workload.DockerCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	cuda, err := workload.LibcudaCached(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	stripped := *cuda
	stripped.Binary = cuda.Binary.Clone()
	stripped.Binary.Symbols = nil
	suite, err := workload.SPECSuiteCached(arch.A64, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		p        *workload.Program
		arg      uint64
		recorded float64
	}{
		{"libxul-x64", libxul, workload.CmdLatencyBenchmark, 0.3101455119803743},
		{"docker-x64", docker, 1, 0.25009146217530925},
		{"libcuda-stripped-x64", &stripped, 0, 0.44407805316219323},
		{"spec-perlbench-a64", suite[0], 0, 0.30303281491228984},
	} {
		r := profileGuidedOne(c.p, c.arg, 0)
		if !r.Pass {
			t.Errorf("%s: %s", c.name, r.Reason)
			continue
		}
		if r.VariantFuncs == 0 {
			t.Errorf("%s: guided plan split no hot functions into variants", c.name)
		}
		if r.Unguided <= 0 || r.Guided <= 0 {
			t.Errorf("%s: overheads unguided %v guided %v, want both positive", c.name, r.Unguided, r.Guided)
			continue
		}
		ratio := r.Guided / r.Unguided
		if bound := 1.75 * c.recorded; ratio > bound {
			t.Errorf("%s: guided/unguided ratio %v exceeds bound %v", c.name, ratio, bound)
		} else {
			t.Logf("%s: ratio %v (bound %v), %d hot / %d variant funcs", c.name, ratio, bound, r.HotFuncs, r.VariantFuncs)
		}
	}
}

// TestLandingPadCoverageCounts pins the evidence layer's func-ptr
// acceptance on x64 exactly. Of the eight builds (go-table,
// 600.perlbench_s, docker and libxul, each plain and CFI) the evidence
// path accepts six and the conservative path four: landing pads turn
// the two CFI refusals into sound rewrites. Acceptance is
// deterministic, so one build more or less on either path is a
// behaviour change. Every cell must also pass, which fails a rewrite
// error other than the imprecise-pointer refusal.
func TestLandingPadCoverageCounts(t *testing.T) {
	t.Parallel()
	res, err := LandingPads(arch.X64)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range res.Failures() {
		t.Error(f)
	}
	if res.Total != 8 || res.Pass != res.Total {
		t.Errorf("pass %d/%d, want 8/8", res.Pass, res.Total)
	}
	if res.EvidenceAccepted != 6 || res.ConservativeAccepted != 4 {
		t.Errorf("accepted: evidence %d, conservative %d; want 6 and 4",
			res.EvidenceAccepted, res.ConservativeAccepted)
	}
}
