// Package brokendet is an mbvet golden-finding fixture: each
// determinism rule fires at least once, and each has a neighbouring
// compliant form that must stay silent. The golden test pins the exact
// finding set; CI additionally asserts that mbvet exits nonzero here.
package brokendet

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"
)

// Stamp reads the wall clock. (det-time)
func Stamp() int64 { return time.Now().UnixNano() }

// Elapsed reads the wall clock twice. (det-time, twice)
func Elapsed(t0 time.Time) time.Duration { return time.Since(t0) + time.Until(t0) }

// Jitter draws from the global math/rand source. (det-rand)
func Jitter() int { return rand.Intn(8) }

// SeededJitter owns its generator; silent.
func SeededJitter(seed int64) int { return rand.New(rand.NewSource(seed)).Intn(8) }

// UnsortedKeys accumulates map keys without sorting. (det-maprange)
func UnsortedKeys(m map[string]uint64) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys sorts after the loop; silent.
func SortedKeys(m map[string]uint64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Render streams rows to a builder in map order. (det-maprange)
func Render(m map[string]uint64) string {
	var b strings.Builder
	for k, v := range m {
		fmt.Fprintf(&b, "%s=%d\n", k, v)
	}
	return b.String()
}

// Stream sends values in map order. (det-maprange)
func Stream(m map[string]int, ch chan<- int) {
	for _, v := range m {
		ch <- v
	}
}

// Tally writes into another map; order-insensitive, silent.
func Tally(m map[string]int) map[int]string {
	inv := make(map[int]string, len(m))
	for k, v := range m {
		inv[v] = k
	}
	return inv
}
