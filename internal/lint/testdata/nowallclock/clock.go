package nowallclock

import "time"

func stamp() time.Time {
	return time.Now() // want "time.Now reads the wall clock"
}

func elapsed(start time.Time) time.Duration {
	return time.Since(start) // want "time.Since reads the wall clock"
}

func pause() {
	time.Sleep(time.Millisecond)     // want "time.Sleep reads the wall clock"
	t := time.NewTicker(time.Second) // want "time.NewTicker reads the wall clock"
	t.Stop()
}

// Duration arithmetic, constants and conversions never touch the clock.
func fine() time.Duration {
	d := 3 * time.Millisecond
	return d.Round(time.Millisecond)
}

// A method that happens to be named like a banned package function is fine:
// only package-level time.* functions are wall-clock reads.
type clock struct{}

func (clock) Now() time.Time { return time.Time{} }

func useMethod() time.Time {
	var c clock
	return c.Now()
}
