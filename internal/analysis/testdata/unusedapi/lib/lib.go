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

// Reads exercises the read side; app sets every field.
type Reads struct {
	Selected int  // app reads it: not flagged
	Unread   int  // set and never read: flagged
	TestRead int  // read only by lib_test.go: flagged
	Count    int  // only incremented, never read: flagged
	Tagged   int  `json:"tagged"` // a struct tag counts as a read: not flagged
	Via      *Via // app writes Via.V through it, which reads it: not flagged
}

// Via is reached through a pointer on an assignment's left side.
type Via struct {
	V int // written through Reads.Via, never read: flagged
}

// Encoded is the value app hands to encoding/json, which reads every
// exported field it reaches: nothing below is flagged but Hidden.H.
type Encoded struct {
	Ptr   *Leaf
	List  []Leaf
	ByKey map[string]Leaf
	Embedded
	Skipped Hidden `json:"-"`
}

// Leaf is reached through a pointer, a slice and a map.
type Leaf struct{ V int }

// Embedded is promoted into Encoded.
type Embedded struct{ E int }

// Hidden sits behind a json:"-" field the encoder skips.
type Hidden struct {
	H int // flagged
}

// Page is template data: Execute reads its fields.
type Page struct{ Title string }

// Key is a map key: hashing reads every field.
type Key struct{ A, B int }

// Point is compared with ==, which reads every field.
type Point struct{ X, Y int }
