package analysis

import "icfgpatch/internal/bin"

// SweepState runs the shared text sweep with evidence and returns what
// it built: the jump-table boundary hints, the instruction-boundary list
// (nil unless the binary claims CFI) and the finished evidence.
func SweepState(b *bin.Binary) (hints, instrBounds []uint64, ev *Evidence) {
	jt, lp := sweepText(b, true)
	ev = Untrusted()
	if lp != nil {
		instrBounds = lp.boundaries
		lp.finish(b, ev)
	}
	return jt.boundaries, instrBounds, ev
}
