package icfgpatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// acceptanceTests names, per package directory, the tests that pin each
// feature's contract. They all run under `go test -race ./...`; listing
// them here makes renaming or deleting one a visible edit instead of a
// silent loss, and keeps the Makefile's `-run` targets pointing at
// tests that exist.
var acceptanceTests = []struct {
	feature string
	dir     string
	tests   []string
}{
	{"cluster", "internal/cluster", []string{
		"TestClusterByteEquivalence",
		"TestClusterFailover",
		"TestClusterMetricsScrape",
		"TestClusterProfilePassThrough",
		"TestClusterBatchThroughGateway",
		"TestClusterBatchBodyCap",
	}},
	{"batch", "internal/service/batch", []string{
		"TestBatchDedupe",
		"TestBatchResume",
		"TestBatchSSEEventOrder",
		"TestBatchSSEClientDisconnect",
		"TestBatchBodyCap",
		"TestBatchRecordCannotPoisonCaches",
		"TestBatchJobsBounded",
		"TestBatchStreamEndsWithJobEvent",
		"FuzzDecodeJobRecord",
	}},
	{"batch-lane", "internal/service/sched", []string{
		"TestBatchLaneReservedWorker",
		"TestBatchLaneBackpressure",
		"TestBatchLaneDrain",
	}},
	{"profile-guided", "internal/core", []string{
		"TestProfileGuidedDeterminism",
		"TestProfileGuidedAdversarialHeat",
		"TestProfileGuidedPreservesBehaviour",
		"TestProfileGuidedDegradesCleanly",
		"TestProfileGuidedAblationsSkipVariants",
		"TestProfileGuidedPlanDump",
	}},
	{"delta", "internal/core", []string{
		"TestDeltaRecomputeBound",
		"TestDeltaCFIRewriteMatchesCold",
	}},
	{"delta", "internal/analysis", []string{
		"FuzzSweepRegions",
	}},
	{"landing-pads", ".", []string{
		"TestSoundFuncPtrWithLandingPads",
		"TestRewrittenCFIBinaryPassesCET",
		"TestMarkerlessByteIdentity",
		"TestCorruptMarkersDegrade",
	}},
	{"landing-pads-wire", "internal/cluster", []string{
		"TestUnknownOptionsRejectedAtEveryDoor",
		"TestNoEvidenceFeatureEndToEnd",
	}},
	{"experiment-gates", "internal/experiments", []string{
		"TestLandingPadCoverageCounts",
		"TestProfileGuidedRatioBounds",
	}},
	{"frames", "internal/service", []string{
		"TestTruncatedResultFileRecomputes",
		"TestFlippedResultFileRecomputes",
		"TestUndecodableBodyIs422",
	}},
	{"store-digest", "internal/store", []string{
		"TestDiskDigestMismatchRebuilds",
	}},
	{"store-digest", "internal/service/batch", []string{
		"TestBatchFlippedRecordNotServed",
	}},
	{"cold-work", "internal/core", []string{
		"TestColdAnalyzeKeepsNoDeltaState",
		"TestX64PatchComputesNoLiveness",
		"TestLivenessOnlyForLongTrampolines",
		"TestConcurrentPatchSharedAnalysis",
	}},
	{"frames", "internal/service/wire", []string{
		"TestReadFrameRejects",
		"FuzzReadFrame",
	}},
	{"make-targets", ".", []string{
		"TestAllocBudget",
		"TestResultHitAllocBytes",
		"TestLyingContentLengthAllocBytes",
		"TestObsOverheadGuard",
	}},
}

// TestAcceptanceTestsExist finds every listed test by parsing its
// package's _test.go files — no subprocess, no compile.
func TestAcceptanceTestsExist(t *testing.T) {
	for _, tc := range acceptanceTests {
		t.Run(tc.feature, func(t *testing.T) {
			defined := testFuncs(t, tc.dir)
			for _, name := range tc.tests {
				if !defined[name] {
					t.Errorf("acceptance test %s not found in %s", name, tc.dir)
				}
			}
		})
	}
}

// testFuncs returns the names of the top-level Test and Fuzz functions
// declared in dir's _test.go files.
func testFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no _test.go files in %s", dir)
	}
	fset := token.NewFileSet()
	names := map[string]bool{}
	for _, path := range paths {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}

// TestServiceStackImports keeps the daemon free of the evaluation
// harness: no non-test file of the service stack may import the
// fixture generator (internal/workload) or the experiments, which a
// deployed icfg-serve never runs.
func TestServiceStackImports(t *testing.T) {
	forbidden := map[string]bool{
		"icfgpatch/internal/workload":    true,
		"icfgpatch/internal/experiments": true,
	}
	fset := token.NewFileSet()
	for _, root := range []string{"internal/service", "internal/cluster", "internal/store", "cmd/icfg-serve", "cmd/icfg-gateway"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				if p, _ := strconv.Unquote(imp.Path.Value); forbidden[p] {
					t.Errorf("%s imports %s", path, p)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestNoGob keeps gob decoders of outside bytes from coming back: gob
// trusts its input's shape and sizes, so every decoder of bytes from
// another process or from disk is a bounded codec instead — a
// length-prefixed binary format, or JSON over the wire types for the
// batch job records. No non-test Go file may import encoding/gob.
func TestNoGob(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Hidden directories hold VCS and build state, not sources.
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "encoding/gob" {
				t.Errorf("%s imports encoding/gob", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
