package icfgpatch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
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
	{"library-surface", ".", []string{
		"TestNoGob",
		"TestNoTestOnlyExports",
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
	roots := []string{"internal/service/", "internal/cluster/", "internal/store/", "cmd/icfg-serve/", "cmd/icfg-gateway/"}
	for _, sf := range nonTestFiles(t) {
		inStack := false
		for _, root := range roots {
			inStack = inStack || strings.HasPrefix(sf.path, root)
		}
		for _, imp := range sf.f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); inStack && forbidden[p] {
				t.Errorf("%s imports %s", sf.path, p)
			}
		}
	}
}

// TestNoGob is the import guard of every non-test Go file in the
// module and in icfgbench/. No file may import encoding/gob: gob trusts
// its input's shape and sizes, so every decoder of bytes from another
// process or from disk is a bounded codec instead — a length-prefixed
// binary format, or JSON over the wire types for the batch job records.
// And no file outside a test-support package (one whose name ends in
// "test") may import testing or net/http/httptest: a test harness in a
// library file links both into every binary that imports the library,
// the daemons included.
func TestNoGob(t *testing.T) {
	for _, sf := range nonTestFiles(t) {
		testSupport := strings.HasSuffix(sf.f.Name.Name, "test")
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			switch {
			case p == "encoding/gob":
				t.Errorf("%s imports encoding/gob", sf.path)
			case (p == "testing" || p == "net/http/httptest") && !testSupport:
				t.Errorf("%s imports %s outside a test-support package", sf.path, p)
			}
		}
	}
}

// testOnlyExports lists the exported library functions and methods that
// only tests call and that stay on purpose, each with its reason. Keys
// are the package path under internal/, then the function, or the
// receiver and method.
var testOnlyExports = map[string]string{
	"core.AuditPlacement":           "placement oracle of the integrity tests, until the static validator replaces it (ROADMAP item 1)",
	"cfg.(*Func).Check":             "graph oracle: the CFG pin, dump and fuzz tests check every graph they build with it",
	"workload.BoundaryTable":        "regression workload of the jump-table bound tests in core and workload",
	"obs.(*Span).Dur":               "span accessor the obs and service tests read stage durations through",
	"obs.(*Span).Attr":              "span accessor the obs and service tests read span attributes through",
	"service/sched.(*Pool).Drain":   "the signal the sched and service tests sequence against the start of a drain",
	"asm.(*Builder).RodataBytes":    "fixture builder: raw read-only data for tests in asm, analysis and core",
	"asm.(*Builder).GlobalInit":     "fixture builder: an initialised data global for the asm tests",
	"asm.(*Builder).KeepLinkRelocs": "fixture builder: link-time relocations for the asm and BOLT baseline tests",
}

// implicitMethods are called through interfaces of the standard library
// (fmt, errors) rather than by name.
var implicitMethods = map[string]bool{"String": true, "Error": true}

// TestNoTestOnlyExports keeps library code that only tests reach out of
// the library. An exported package-level function under internal/ needs
// a pkg.Name reference from a non-test file of the module or of
// icfgbench/, or a reference from a non-test file of its own package. An
// exported method needs a selector of its name in any non-test file, or
// a standard interface that calls it. The exceptions are
// testOnlyExports; an entry that no longer names a test-only export
// fails too, so the list cannot go stale.
func TestNoTestOnlyExports(t *testing.T) {
	files := nonTestFiles(t)
	used := map[string]bool{}      // import path + "." + name, referenced outside its own declaration
	selectors := map[string]bool{} // every selector name in non-test code
	for _, sf := range files {
		imports := map[string]string{} // local name -> import path
		for _, imp := range sf.f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		for _, d := range sf.f.Decls {
			// Neither a function's declared name nor a recursive call
			// to it is a use.
			var decl *ast.Ident
			self := ""
			if fn, ok := d.(*ast.FuncDecl); ok {
				decl = fn.Name
				if fn.Recv == nil {
					self = fn.Name.Name
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					selectors[n.Sel.Name] = true
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						used[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.Ident:
					if n != decl && n.Name != self {
						used[sf.pkg+"."+n.Name] = true
					}
				}
				return true
			})
		}
	}
	found := map[string]bool{}
	for _, sf := range files {
		rel, ok := strings.CutPrefix(sf.pkg, "icfgpatch/internal/")
		if !ok {
			continue
		}
		for _, d := range sf.f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			var key string
			switch {
			case fn.Recv == nil && !used[sf.pkg+"."+fn.Name.Name]:
				key = rel + "." + fn.Name.Name
			case fn.Recv != nil && !selectors[fn.Name.Name] && !implicitMethods[fn.Name.Name]:
				key = rel + "." + receiverName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			default:
				continue
			}
			found[key] = true
			if _, ok := testOnlyExports[key]; !ok {
				t.Errorf("%s: %s is exported but only tests reach it: delete it, move it into a test file, or list it in testOnlyExports with a reason", sf.path, key)
			}
		}
	}
	for key := range testOnlyExports {
		if !found[key] {
			t.Errorf("testOnlyExports lists %s, which is no longer an exported function only tests reach", key)
		}
	}
}

// receiverName renders a method receiver type as T or (*T), without type
// parameters.
func receiverName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	switch x := e.(type) {
	case *ast.IndexExpr:
		e = x.X
	case *ast.IndexListExpr:
		e = x.X
	}
	name := e.(*ast.Ident).Name
	if star {
		return "(*" + name + ")"
	}
	return name
}

// sourceFile is one parsed non-test Go file.
type sourceFile struct {
	path string    // slash-separated, relative to the module root
	pkg  string    // import path of its package
	f    *ast.File // parsed in full
}

// nonTestFiles parses every non-test Go file under the module root, the
// nested icfgbench module included (its module path, icfgpatch/icfgbench,
// is its directory's). Hidden directories hold VCS and build state, not
// sources, and testdata holds fixtures; both are skipped.
func nonTestFiles(t *testing.T) []sourceFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []sourceFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		p = filepath.ToSlash(p)
		pkg := "icfgpatch"
		if dir := path.Dir(p); dir != "." {
			pkg += "/" + dir
		}
		out = append(out, sourceFile{path: p, pkg: pkg, f: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}
