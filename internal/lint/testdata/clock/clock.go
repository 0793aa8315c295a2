// Package clock is a fixture proving the clockhygiene home-package
// exemption: a package whose import path ends in /clock is the sanctioned
// wrapper around raw time and may touch it directly — except to start a
// goroutine per timer fire.
package clock

import "time"

// Raw would be a finding anywhere else.
func Raw() time.Time { return time.Now() }

// Park would be a finding anywhere else.
func Park() { time.Sleep(time.Millisecond) }

// Leak is a finding even here.
func Leak(f func()) { time.AfterFunc(time.Millisecond, f) } // want `time.AfterFunc starts a goroutine per fire`
