// Package engine provides the simulator's time base: a cycle type and
// Server, the capacity calendar every shared resource (L3 bank port, NoC
// link, DRAM channel, stream-engine thread pool) reserves its timing
// from. There is no event queue: a workload goroutine computes each
// request's timing synchronously from the calendars it crosses, and
// components update their counters inline as they go.
package engine

// Time is a simulated cycle count.
type Time uint64

// Forever is a sentinel time later than any reachable cycle.
const Forever Time = ^Time(0)

// MaxTime returns the later of two times.
func MaxTime(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// MinTime returns the earlier of two times.
func MinTime(a, b Time) Time {
	if a < b {
		return a
	}
	return b
}
