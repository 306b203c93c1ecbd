// Fixture for the testonly rule, type-checked as a one-package module:
// every declaration in a non-test file needs a reference from a
// non-test file. fixture_test.go plays the tests that keep the
// positive cases alive.
package fixture

import "fmt"

// Positive cases: only fixture_test.go refers to these.

func OnlyTested() int { return 1 } // want "OnlyTested has no reference outside _test.go files"

const TestedConst = 2 // want "TestedConst has no reference outside _test.go files"

// Widget's own method receiver does not count as a use of Widget.
type Widget struct{ n int } // want "Widget has no reference outside _test.go files"

func (w *Widget) Size() int { return w.n } // want "Widget.Size has no reference outside _test.go files"

// A recursive call is a reference from inside the declaration itself.
func countdown(n int) int { // want "countdown has no reference outside _test.go files"
	if n == 0 {
		return 0
	}
	return countdown(n - 1)
}

// Negative cases.

// Shape is an interface the code uses, so square.Area is kept although
// nothing calls it on a square directly.
type Shape interface{ Area() float64 }

type square struct{ side float64 }

func (s square) Area() float64 { return s.side * s.side }

// String satisfies fmt.Stringer, which fmt finds without naming it.
func (s square) String() string { return fmt.Sprint(s.side) }

func describe(sh Shape) string { return fmt.Sprint(sh.Area()) }

// side has a non-test caller.
func side() float64 { return 3 }

var _ = describe(square{side: side()})

func init() {}

// The escape hatch: deliberate test-support API.

//gcslint:allow testonly — deliberate test-support API
func Support() int { return 4 } // want:allowed "Support has no reference outside _test.go files"
