// Command icfg-rewrite applies incremental CFG patching to a serialised
// binary (.icfg file, as produced by the asm toolchain or icfg-objdump's
// tooling) and writes the rewritten image.
//
// Usage:
//
//	icfg-rewrite -mode jt [-where block|func] [-payload empty|counter]
//	             [-funcs f1,f2] [-verify] [-check] [-metrics] [-trace]
//	             [-gap bytes] [-no-evidence]
//	             [-remote http://host:port] [-retries N]
//	             [-profile heat.icfgprf] [-profile-out heat.icfgprf]
//	             -o out.icfg in.icfg
//
// -no-evidence disables the landing-pad evidence layer: func-ptr mode
// takes the conservative path even on CFI builds (refusing imprecise
// workloads instead of accepting them on marker evidence). On binaries
// that claim CFI, -check runs both images under CET enforcement, so a
// passing check also proves every indirect transfer in the rewritten
// binary still lands on a marker.
//
// With -remote the rewrite is performed by an icfg-serve daemon: the
// serialised binary is POSTed to the service, which caches analyses by
// content hash so repeat rewrites of the same binary run the warm patch
// path. All other flags behave identically; -check still executes both
// binaries locally in the reference emulator.
//
// -profile-out runs the *input* binary in the reference emulator with
// heat capture on and writes the block-heat profile artifact — the
// capture half of the profile-guided loop. -profile feeds a previously
// captured artifact back into the rewrite (locally via core.Options,
// remotely framed into the request body), steering hot functions onto
// the fast multi-version path. Both can be combined to capture and
// immediately consume a profile in one invocation.
//
// With -remote and -batch the CLI submits a whole fleet in one job:
//
//	icfg-rewrite -remote http://host:port -batch manifest.json
//
// The manifest lists items as {"name", "input", "output", "opts"};
// items without "opts" inherit the CLI's mode/where/payload flags, and
// "output" defaults to "<input>.out". Progress streams live over the
// job's SSE event feed — per-binary start/done lines with the cache
// path each rewrite took — and survives server restarts (the stream
// resumes and a -batch-dir daemon finishes the job). Outputs are
// fetched and written as the job completes.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"icfgpatch/internal/bin"
	"icfgpatch/internal/core"
	"icfgpatch/internal/emu"
	"icfgpatch/internal/obs"
	"icfgpatch/internal/profile"
	"icfgpatch/internal/rtlib"
	"icfgpatch/internal/service"
	"icfgpatch/internal/service/wire"
	"icfgpatch/internal/store"
)

// checkMaxInstrs bounds each -check execution; the workload drivers all
// terminate well under this.
const checkMaxInstrs = 200_000_000

func main() {
	// The option flags are the wire codec's rows, so the CLI and the
	// service share one vocabulary and one validation.
	parseOptions := wire.RegisterFlags(flag.CommandLine)
	check := flag.Bool("check", false, "run original and rewritten binaries in the emulator and compare outputs")
	metrics := flag.Bool("metrics", false, "print per-pass rewrite metrics")
	trace := flag.Bool("trace", false, "print the rewrite's span tree (stage timings and counters)")
	remote := flag.String("remote", "", "rewrite via an icfg-serve daemon at this base URL instead of locally")
	retries := flag.Int("retries", 2, "with -remote: retries for transient connection failures (refused/reset/EOF before headers)")
	batchFile := flag.String("batch", "", "with -remote: submit this JSON manifest as one batch job with live progress")
	profileIn := flag.String("profile", "", "block-heat profile artifact guiding the rewrite (hot functions get the fast multi-version path)")
	profileOut := flag.String("profile-out", "", "run the input binary under the emulator with heat capture and write the profile artifact here")
	out := flag.String("o", "", "output path (required)")
	flag.Parse()

	usage := func(err error) {
		fmt.Fprintln(os.Stderr, "icfg-rewrite:", err)
		fmt.Fprintln(os.Stderr, "usage: icfg-rewrite [flags] -o out.icfg in.icfg")
		fmt.Fprintln(os.Stderr, "       icfg-rewrite -remote URL -batch manifest.json")
		flag.PrintDefaults()
		os.Exit(2)
	}

	// A bad mode/where/payload string is a usage error, reported with
	// the flag reference — not a runtime failure (and never a panic in
	// the arch layer, which only sees validated values).
	opts, err := parseOptions()
	if err != nil {
		usage(err)
	}

	if *batchFile != "" {
		if *remote == "" {
			usage(fmt.Errorf("-batch requires -remote"))
		}
		if flag.NArg() != 0 || *out != "" {
			usage(fmt.Errorf("-batch takes inputs and outputs from the manifest, not the command line"))
		}
		defaults, err := wire.EncodeOptions(opts)
		if err != nil {
			usage(err)
		}
		if err := runBatch(*remote, *retries, *batchFile, defaults.Encode()); err != nil {
			fatal(err)
		}
		return
	}
	if flag.NArg() != 1 || (*out == "" && *profileOut == "") {
		usage(fmt.Errorf("need exactly one input file and -o (or -profile-out)"))
	}

	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	img, err := bin.Unmarshal(raw)
	if err != nil {
		fatal(err)
	}

	if *profileOut != "" {
		prof, err := captureProfile(img, raw, opts.Mode)
		if err != nil {
			fatal(fmt.Errorf("profile capture: %w", err))
		}
		if err := os.WriteFile(*profileOut, prof.Encode(), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("captured profile: %d funcs, %d hot, total heat %d -> %s\n",
			len(prof.Funcs), len(prof.HotFuncs()), prof.TotalCount, *profileOut)
		if *profileIn == *profileOut {
			// Capture-and-consume in one invocation: skip the re-read.
			opts.Profile = prof
		}
		if *out == "" {
			return // capture-only mode
		}
	}
	if *profileIn != "" && opts.Profile == nil {
		pb, err := os.ReadFile(*profileIn)
		if err != nil {
			fatal(err)
		}
		// Guidance is advisory end to end: a profile that fails its
		// hardened decode — or carries no heat — degrades to the unguided
		// rewrite with a warning, mirroring the service's door.
		switch prof, err := profile.Decode(pb); {
		case err != nil:
			fmt.Fprintf(os.Stderr, "icfg-rewrite: warning: profile %s unusable (%v); rewriting unguided\n", *profileIn, err)
		case prof.Trivial():
			fmt.Fprintf(os.Stderr, "icfg-rewrite: warning: profile %s carries no heat; rewriting unguided\n", *profileIn)
		default:
			opts.Profile = prof
		}
	}

	var (
		stats     core.Stats
		mx        core.Metrics
		traceText string
		rewritten *bin.Binary
		served    string
	)
	if *remote != "" {
		cl := &service.Client{BaseURL: *remote, Trace: *trace, Retries: *retries}
		image, reply, err := cl.Rewrite(context.Background(), raw, opts)
		if err != nil {
			fatal(err)
		}
		traceText = reply.TraceText
		rewritten, err = bin.Unmarshal(image)
		if err != nil {
			fatal(fmt.Errorf("remote returned a bad image: %w", err))
		}
		if err := os.WriteFile(*out, image, 0o644); err != nil {
			fatal(err)
		}
		stats, mx = reply.Stats, reply.Metrics
		served = fmt.Sprintf("%s (%.1fms server)", service.ReplyCachePath(reply), float64(reply.ElapsedUS)/1000)
	} else {
		var sp *obs.Span
		if *trace {
			sp = obs.NewTrace("rewrite")
		}
		res, err := core.Rewrite(img, opts)
		if err != nil {
			fatal(err)
		}
		res.Metrics.AddSpans(sp, false)
		sp.End()
		traceText = sp.Render()
		if err := res.Binary.WriteFile(*out); err != nil {
			fatal(err)
		}
		stats, mx, rewritten = res.Stats, res.Metrics, res.Binary
	}

	fmt.Printf("rewrote %s (%s, mode %s)\n", flag.Arg(0), img.Arch, opts.Mode)
	printSummary(stats, mx)
	if served != "" {
		fmt.Printf("  service:      %s\n", served)
	}
	if *metrics {
		fmt.Println(mx.Render())
	}
	if *trace && traceText != "" {
		fmt.Println(traceText)
	}

	if *check {
		if err := checkRun(img, rewritten); err != nil {
			fatal(fmt.Errorf("check: %w", err))
		}
		fmt.Println("  check:        outputs identical")
	}
}

// printSummary prints one rewrite's record, local or remote alike: the
// rewritten binary's Stats and the pipeline's Metrics.
func printSummary(s core.Stats, m core.Metrics) {
	fmt.Printf("  functions:    %d/%d instrumented (coverage %.2f%%)\n",
		s.InstrumentedFuncs, s.TotalFuncs, 100*s.Coverage())
	if len(s.SkippedFuncs) > 0 {
		fmt.Printf("  skipped:      %s\n", strings.Join(s.SkippedFuncs, ", "))
	}
	fmt.Printf("  analysis:     %d funcs reused, %d recomputed\n", m.FuncsReused, m.FuncsRecomputed)
	fmt.Printf("  CFL blocks:   %d (+%d scratch blocks)\n", m.CFLBlocks, m.ScratchBlocks)
	fmt.Printf("  trampolines:  %v\n", m.Trampolines)
	fmt.Printf("  jump tables:  %d cloned\n", m.ClonedTables)
	fmt.Printf("  fn pointers:  %d rewritten\n", s.RewrittenPtrs)
	fmt.Printf("  ra map:       %d entries\n", s.RAMapEntries)
	if s.HotFuncs > 0 || s.VariantFuncs > 0 {
		fmt.Printf("  profile:      %d hot funcs, %d with fast variants\n", s.HotFuncs, s.VariantFuncs)
	}
	if s.MarkSites > 0 {
		trust := "untrusted"
		if s.EvidenceTrusted {
			trust = "trusted"
		}
		fmt.Printf("  landing pads: %d marks (%s), %d candidates skipped, %d tables mark-bounded\n",
			s.MarkSites, trust, s.EvidenceSkips, s.MarkBoundedTables)
	}
	fmt.Printf("  size:         %d -> %d bytes (+%.2f%%)\n",
		s.OrigLoadedSize, s.NewLoadedSize, 100*s.SizeIncrease())
}

// checkRun executes orig and rewritten under the emulator and compares
// their outputs byte for byte. A binary that claims CFI runs under CET
// enforcement, so the check also proves every indirect transfer in the
// rewritten image still lands on a marker.
func checkRun(orig, rewritten *bin.Binary) error {
	enforce := orig.CFI()
	want, err := execute(orig, enforce)
	if err != nil {
		return fmt.Errorf("original binary: %w", err)
	}
	got, err := execute(rewritten, enforce)
	if err != nil {
		return fmt.Errorf("rewritten binary: %w", err)
	}
	if !bytes.Equal(want.Output, got.Output) {
		return fmt.Errorf("output diverged: original %d bytes, rewritten %d bytes", len(want.Output), len(got.Output))
	}
	return nil
}

func execute(img *bin.Binary, enforceCET bool) (emu.Result, error) {
	lib, err := rtlib.Preload(img)
	if err != nil {
		return emu.Result{}, err
	}
	m, err := emu.Load(img, emu.Options{Runtime: lib, MaxInstrs: checkMaxInstrs, EnforceCET: enforceCET})
	if err != nil {
		return emu.Result{}, err
	}
	return m.Run()
}

// captureProfile runs the input binary under the reference emulator
// with heat capture on and aggregates the landing counts over its CFG
// into a profile artifact keyed by the binary's content hash.
func captureProfile(img *bin.Binary, raw []byte, mode core.Mode) (*profile.Profile, error) {
	lib, err := rtlib.Preload(img)
	if err != nil {
		return nil, err
	}
	m, err := emu.Load(img, emu.Options{Runtime: lib, MaxInstrs: checkMaxInstrs, CaptureHeat: true})
	if err != nil {
		return nil, err
	}
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("emulated run: %w", err)
	}
	an, err := core.Analyze(img, core.AnalysisConfig{Mode: mode})
	if err != nil {
		return nil, err
	}
	return an.ProfileFromHeat(store.Hash(raw), res.Heat), nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "icfg-rewrite:", err)
	os.Exit(1)
}
