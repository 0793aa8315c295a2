// Package units provides the typed time quantity used across the SMIless
// codebase. The simulator, profiler and performance models all operate on
// simulated time — float64 values that the paper's equations express in
// seconds — while the metrics exposition format and several serverless
// platform APIs speak milliseconds. Duration makes that boundary explicit:
// a value typed Duration is seconds, and crossing to milliseconds is a
// named conversion (Millis, Duration.Millis) rather than a bare * 1e3.
//
// Duration is deliberately a defined float64, not a struct: arithmetic
// (d1 + d2, d * 3) keeps working, conversion is free, and values are
// bit-identical to the raw seconds they replace, so adopting it cannot
// perturb any reproducible simulation result.
package units

import (
	"fmt"
	"math"
)

// Duration is a span of simulated time in seconds. The zero value is zero
// seconds.
type Duration float64

// Seconds constructs a Duration from raw seconds.
func Seconds(s float64) Duration { return Duration(s) }

// Millis constructs a Duration from raw milliseconds.
func Millis(ms float64) Duration { return Duration(ms / 1e3) }

// Micros constructs a Duration from raw microseconds.
func Micros(us float64) Duration { return Duration(us / 1e6) }

// Seconds returns the duration as raw seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// Millis returns the duration as raw milliseconds.
func (d Duration) Millis() float64 { return float64(d) * 1e3 }

// Micros returns the duration as raw microseconds.
func (d Duration) Micros() float64 { return float64(d) * 1e6 }

// Min returns the smaller of d and other.
func (d Duration) Min(other Duration) Duration {
	if other < d {
		return other
	}
	return d
}

// Max returns the larger of d and other.
func (d Duration) Max(other Duration) Duration {
	if other > d {
		return other
	}
	return d
}

// IsValid reports whether the duration is a finite, non-negative span —
// what every sampled timing in the simulator must be.
func (d Duration) IsValid() bool {
	f := float64(d)
	return f >= 0 && !math.IsInf(f, 0) && !math.IsNaN(f)
}

// String formats the duration with a unit chosen for readability.
func (d Duration) String() string {
	s := float64(d)
	abs := math.Abs(s)
	switch {
	case abs == 0: //lint:allow floateq exact zero picks the unitless format; any other value has a magnitude
		return "0s"
	case abs < 1e-3:
		return fmt.Sprintf("%.3gµs", s*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3gms", s*1e3)
	default:
		return fmt.Sprintf("%.4gs", s)
	}
}
