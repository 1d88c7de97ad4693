package main

import (
	"math/rand"
	"sort"
	"time"
)

// refNominal is refWork's median time on the 2-vCPU VM the benchmark was
// calibrated on, on a calm spell. It is frozen like the workloads' rates.
const refNominal = 1800 * time.Microsecond

// refSamples is how many times refWork is timed after each batch of
// set-ups. Single timings of it spread widely on a shared host; with 5 a
// batch, the run's median moved enough to widen the spread of the scaled
// figures beyond that of the figures as timed.
const refSamples = 20

// refWork is a fixed computation that uses none of the code under test:
// it fills a map from a fixed pseudo-random slice, sorts the slice and
// looks every value up again, branchy integer and memory work of the kind
// the interpreter does. Timed between chunks, with the process otherwise
// idle, it tracks the speed the shared host gave the run: on that host the
// same loop takes from under half to over twice its usual time, from one
// minute to the next.
func refWork() time.Duration {
	rng := rand.New(rand.NewSource(1))
	xs := make([]int, 1<<14)
	for i := range xs {
		xs[i] = rng.Int()
	}
	t0 := time.Now()
	seen := make(map[int]int, len(xs))
	for i, x := range xs {
		seen[x] = i
	}
	sort.Ints(xs)
	sum := 0
	for _, x := range xs {
		sum += seen[x]
	}
	d := time.Since(t0)
	if sum != len(xs)*(len(xs)-1)/2 {
		panic("refWork: lost a value")
	}
	return d
}

// refMedian is the median of the refWork times.
func refMedian(refs []time.Duration) time.Duration {
	var xs []float64
	for _, d := range refs {
		xs = append(xs, float64(d))
	}
	return time.Duration(median(xs))
}

// hostScale is refNominal over the median of refs: below 1 when the host
// ran slower than on the reference spell. A time measured on the run,
// multiplied by it, is the time at the reference speed; a rate is divided
// by it.
func hostScale(refs []time.Duration) float64 {
	return float64(refNominal) / float64(refMedian(refs))
}
