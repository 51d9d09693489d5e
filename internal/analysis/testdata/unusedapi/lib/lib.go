// Package lib exercises the unusedapi analyzer together with app, the
// binary that uses it: what app reaches is used, what only lib's test
// file reaches is not.
package lib

import "fmt"

// Used is called by app: not flagged.
func Used() int { return helper() }

// helper is unexported: never judged.
func helper() int { return 1 }

// TestOnly is called only by lib_test.go: flagged.
func TestOnly() int { return 2 }

// Recursive calls itself and nobody else does: a use inside its own
// declaration does not count, flagged.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Processor mirrors streams.Processor.
type Processor interface {
	Process(item string) (string, error)
}

// Upper is reached by app only through Processor and fmt.Stringer.
type Upper struct{ N int }

// Process satisfies Processor: not flagged.
func (u *Upper) Process(item string) (string, error) { return item, nil }

// String satisfies fmt.Stringer: not flagged.
func (u Upper) String() string { return fmt.Sprint(u.N) }

// Extra is a method of a used type that no interface needs and nothing
// calls: flagged.
func (u *Upper) Extra() {}

// Options is a configuration struct.
type Options struct {
	Set     int // set by app's literal: not flagged
	TestSet int // set only by lib_test.go: flagged
	Tagged  int `json:"tagged"` // a decoder sets it: not flagged
	Addr    int // app takes its address: not flagged
}

// Kept is unused, and the allow below keeps it with its reason.
//
//lint:allow unusedapi fixture: a kept finding states why it stays
func Kept() {}

// Stale is used by app, so the allow below suppresses nothing and
// stalelint reports it.
//
//lint:allow unusedapi fixture: app calls it, so this allow is stale
func Stale() {}

// Limit is read by nobody: flagged.
const Limit = 3
