// Package clock is the library's single approved wall-clock access
// point. Library packages never call time.Now directly (the
// determinism analyzer in internal/lint enforces this); they take an
// injectable clock.Func so tests can pin timestamps and reproduce
// timing-labelled output byte-for-byte. Only elapsed-time *reporting*
// flows through this package — no algorithmic decision may ever depend
// on the clock, which is exactly why the access point is centralized
// and auditable.
package clock

import "time"

// Func is an injectable time source. The zero value (nil) means "use
// the real wall clock"; resolve it with OrWall at the point of use.
type Func func() time.Time

// Wall reads the real wall clock. This package is the one sanctioned
// time.Now access point in library code; the lint driver exempts it
// from the determinism check by policy (see lint.AnalyzersFor) rather
// than by per-line suppression.
func Wall() time.Time { return time.Now() }

// OrWall returns f, or the real wall clock when f is nil.
func OrWall(f Func) Func {
	if f == nil {
		return Wall
	}
	return f
}

// Fixed returns a Func pinned to t. Tests use it to freeze time.
func Fixed(t time.Time) Func {
	return func() time.Time { return t }
}
