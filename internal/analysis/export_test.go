package analysis

// Hints returns the resolver's jump-table boundary hints.
func Hints(jt *JumpTables) []uint64 { return jt.boundaries }
