// Package callerrule is the caller rule's bite twin: it plants one name
// of each kind the rule flags beside two methods the rule must leave
// alone, and TestCallerRuleFlagsPlantedNames checks that the rule flags
// exactly the planted four.
package callerrule

import "fmt"

// Unused is planted: nothing reads it.
const Unused = 1

// Used is read by the package-level variable below.
const Used = 2

// Options is an options struct with one field nothing sets.
type Options struct {
	Set   int
	Unset int // planted: read below, set nowhere
}

// Result is a struct with one field nothing reads.
type Result struct {
	Read   int
	Unread int // planted: set below, read nowhere
}

// Shape is the interface that keeps Square.Area.
type Shape interface{ Area() float64 }

// Square has three exported methods and no caller of any of them.
type Square struct{ side float64 }

// Area satisfies Shape, so the rule leaves it alone.
func (s Square) Area() float64 { return s.side * s.side }

// String satisfies fmt.Stringer, so the rule leaves it alone.
func (s Square) String() string { return fmt.Sprint(s.side) }

// Uncalled is planted: it satisfies no interface and nothing calls it.
func (s Square) Uncalled() float64 { return 4 * s.side }

// Run is called by the package-level variable below.
func Run(o Options) Result {
	return Result{Read: o.Set + o.Unset + Used, Unread: 1}
}

var _ = Run(Options{Set: 1}).Read
