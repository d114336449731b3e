package icfgpatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
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
		"TestClusterPeerWarmPath",
		"TestClusterPeerTimeout",
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
	}},
	{"landing-pads", ".", []string{
		"TestSoundFuncPtrWithLandingPads",
		"TestRewrittenCFIBinaryPassesCET",
		"TestMarkerlessByteIdentity",
		"TestCorruptMarkersDegrade",
	}},
	{"landing-pads-wire", "internal/cluster", []string{
		"TestUnknownFeatureBitsRejectedAtEveryDoor",
		"TestNoEvidenceFeatureEndToEnd",
	}},
	{"experiment-gates", "internal/experiments", []string{
		"TestLandingPadCoverageCounts",
		"TestProfileGuidedRatioBounds",
	}},
	{"make-targets", ".", []string{
		"TestAllocBudget",
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

// testFuncs returns the names of the top-level Test functions declared
// in dir's _test.go files.
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
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Test") {
				names[fn.Name.Name] = true
			}
		}
	}
	return names
}
