package main

import (
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"time"
)

// Host speed.
//
// The benchmark runs on a few cores of a shared host, whose other tenants
// change the speed of the same code by up to 2x for minutes at a time:
// longer runs do not average that out. So every end-to-end time is
// measured against a reference. After each loop segment, and before each
// set-up, the benchmark times refTask, a fixed job built only from the
// standard library, and scales that segment's times (and the set-up) by
// refNominal over the reference's time. A scaled time is what the
// operation would have taken on a host that runs refTask in refNominal. A
// change to the program moves it as it moves the raw time; a change in the
// host's speed moves the raw time and the reference together and cancels.
// The factors are printed with each run, so raw times can be recovered.

// refNominal is refTask's time the scaled metrics refer to, about its
// time on an idle 2-vCPU, 2 GHz x86-64 guest.
const refNominal = 8 * time.Millisecond

// refWorkers runs refTask on as many goroutines as the served workloads
// have clients, so it loads the cores the way the loop does.
const refWorkers = clients

type refRecord struct {
	Name string
	Qty  int
	Tags []string
}

// refTask runs a fixed mix of hashing, JSON encoding and decoding, and
// sorting on refWorkers goroutines and returns its wall time. It starts
// from a collected heap, so no collection of the caller's garbage falls
// inside it.
func refTask() time.Duration {
	runtime.GC()
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < refWorkers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			buf := make([]byte, 16<<10)
			recs := make([]refRecord, 50)
			for i := range recs {
				recs[i] = refRecord{Name: "item", Qty: i, Tags: []string{"a", "b"}}
			}
			xs := make([]int, 500)
			for k := 0; k < 40; k++ {
				sha256.Sum256(buf)
				b, _ := json.Marshal(recs)
				var back []refRecord
				_ = json.Unmarshal(b, &back)
				for i := range xs {
					xs[i] = rng.Int()
				}
				sort.Ints(xs)
			}
		}(g)
	}
	wg.Wait()
	return time.Since(start)
}

// hostFactor times refTask now and returns the factor that scales a time
// measured around now to the reference host.
func hostFactor() float64 {
	return float64(refNominal) / float64(refTask())
}

// scaled returns d scaled by the host factor f.
func scaled(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}

// noteFactors prints the host factors a run's segments were scaled by.
func noteFactors(out *outcome, fs []float64) {
	c := append([]float64(nil), fs...)
	sort.Float64s(c)
	out.notef("host factor (%v / refTask time): median %.3f, range %.3f..%.3f over %d segments",
		refNominal, medianFloat(c), c[0], c[len(c)-1], len(c))
}
