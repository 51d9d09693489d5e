// Package fixture exercises the stalelint analyzer: a live allow, a
// stale allow, a multi-rule allow with one dead half and an unknown
// rule name, and an allow without a reason.
package fixture

// eq wants exact equality; its allow suppresses a real floateq finding
// and is therefore live.
func eq(a, b float64) bool {
	return a == b //lint:allow floateq fixture: exact match is the contract here
}

// alwaysTrue once compared floats; the comparison is gone but the
// allow lingers: stale finding.
//
//lint:allow floateq stale: nothing in this function compares floats any more
func alwaysTrue(a, b float64) bool {
	_ = a
	_ = b
	return true
}

// multi suppresses two rules on one line but only the floateq half
// still fires: the goroutineleak half is a stale finding.
func multi(a, b float64) bool {
	return a == b //lint:allow floateq,goroutineleak fixture: only the float half is live
}

// unknown names a rule that does not exist: always reported.
func unknown() int {
	return 1 //lint:allow nosuchrule this rule name is a typo
}

// keep holds a dormant allow on purpose; the stalelint finding about
// it is itself suppressed by the allow on the line above it.
//
//lint:allow stalelint the dormant allow below documents intent
//lint:allow floateq dormant: kept for an upcoming float comparison
func keep(a, b float64) bool {
	_ = a
	_ = b
	return false
}

// bare suppresses a live finding but gives no reason: reported.
func bare(a, b float64) bool {
	return a == b //lint:allow floateq
}
