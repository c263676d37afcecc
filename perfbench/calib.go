package main

import (
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The shared virtual machines the benchmark runs on change speed by a
// quarter or more within tens of seconds, so that two runs of the same
// code minutes apart read times up to 50 % apart. The benchmark therefore
// runs a fixed calibration kernel of its own between the units it times
// (a simulation cell, a trace replay, a slice of service churn) and
// reports their times at a reference host speed: a unit's measured time
// times calibRef over the calibration kernel's time around it. A change
// to the program moves the units, never the kernel, so a program that
// gets 10 % faster reads 10 % faster; a host that slows down slows both,
// and the ratio stays. The kernel allocates nothing, so it neither
// triggers nor pays for the program's garbage collection.

// calibRef is the calibration kernel's time at the reference host speed:
// about its median on the reference host (README.md, "Reference
// figures"). It only scales the printed values.
const calibRef = 16 * time.Millisecond

// Between two units the kernel runs calibReps times, and the
// calibrations of calibWindow gaps on each side of a unit set its speed:
// their median ignores a calibration that was preempted, and the window
// still follows the host's drift, which takes seconds.
const (
	calibReps   = 2
	calibWindow = 3
)

// calibrator holds the calibration kernel's inputs, built once from a
// fixed seed: a random cyclic permutation to chase (4 MiB, past the
// per-core caches), a buffer to clear, a map to probe and numbers to
// sort. None of them depends on --seed or on the program.
type calibrator struct {
	next  []int32
	buf   []byte
	table map[uint64]uint32
	keys  []uint64
	nums  []int
	work  []int
	sink  uint64
}

func newCalibrator() *calibrator {
	r := rand.New(rand.NewSource(12345))
	c := &calibrator{
		next:  make([]int32, 1<<20),
		buf:   make([]byte, 4<<20),
		table: make(map[uint64]uint32, 1<<15),
		keys:  make([]uint64, 1<<16),
		nums:  make([]int, 1<<14),
		work:  make([]int, 1<<14),
	}
	// Sattolo's algorithm: one cycle through every slot.
	for i := range c.next {
		c.next[i] = int32(i)
	}
	for i := len(c.next) - 1; i > 0; i-- {
		j := r.Intn(i)
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.keys {
		c.keys[i] = r.Uint64()
		if i%2 == 0 {
			c.table[c.keys[i]] = uint32(i)
		}
	}
	for i := range c.nums {
		c.nums[i] = r.Int()
	}
	c.measure() // first touch of every buffer
	return c
}

// measure runs the kernel once and returns its wall time.
func (c *calibrator) measure() time.Duration {
	start := time.Now()
	x := int32(0)
	for i := 0; i < 40_000; i++ {
		x = c.next[x]
	}
	clear(c.buf)
	c.buf[int(x)%len(c.buf)] = 1
	var hits uint64
	for i := 0; i < 4; i++ {
		for _, k := range c.keys {
			if v, ok := c.table[k]; ok {
				hits += uint64(v)
			}
		}
	}
	copy(c.work, c.nums)
	sort.Ints(c.work)
	h := uint64(x)
	for i := 0; i < 400_000; i++ {
		h ^= h << 13
		h ^= h >> 7
		h ^= h << 17
		h *= 0x9e3779b97f4a7c15
	}
	c.sink += h + hits + uint64(c.work[0])
	return time.Since(start)
}

// hostClock records the timed units of a phase and the calibrations
// between them: gap i, calibReps calibrations, ran just before unit i,
// and one more gap follows the last unit. A nil *hostClock records
// nothing, for untimed rounds.
type hostClock struct {
	cal *calibrator
	// collect makes every gap start with a garbage collection, so that
	// neither the kernel nor the next unit runs beside the collection of
	// an earlier unit's garbage. The simulations set it: between their
	// units the live heap is small and the collection takes milliseconds.
	collect bool
	cals    []time.Duration
	units   []time.Duration
}

func newHostClock(cal *calibrator, collect bool) *hostClock {
	return &hostClock{cal: cal, collect: collect}
}

// calibrate runs one gap of calibrations; call it before every unit and
// once after the last.
func (h *hostClock) calibrate() {
	if h != nil {
		if h.collect {
			runtime.GC()
		}
		for i := 0; i < calibReps; i++ {
			h.cals = append(h.cals, h.cal.measure())
		}
	}
}

// unit records the measured time of the next unit.
func (h *hostClock) unit(d time.Duration) {
	if h != nil {
		h.units = append(h.units, d)
	}
}

// factor returns the factor that takes unit i's measured time to the
// reference speed: calibRef over the median calibration of the
// calibWindow gaps before the unit and calibWindow after it.
func (h *hostClock) factor(i int) float64 {
	lo, hi := max(0, (i-calibWindow+1)*calibReps), min(len(h.cals), (i+1+calibWindow)*calibReps)
	var w []float64
	for _, c := range h.cals[min(lo, hi):hi] {
		w = append(w, float64(c))
	}
	if m := median(w); m > 0 {
		return float64(calibRef) / m
	}
	return 1
}

// normalized returns every unit's time at the reference speed, in
// seconds.
func (h *hostClock) normalized() []float64 {
	out := make([]float64, len(h.units))
	for i, d := range h.units {
		out[i] = d.Seconds() * h.factor(i)
	}
	return out
}

// calibMedian returns the median calibration, in milliseconds.
func (h *hostClock) calibMedian() float64 {
	var cs []float64
	for _, c := range h.cals {
		cs = append(cs, ms(c))
	}
	return median(cs)
}

// sum adds up xs.
func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}
