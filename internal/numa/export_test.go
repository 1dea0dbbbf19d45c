package numa

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// SetMapMinBytes moves both mapping thresholds, of an array and of a
// machine's cache tags, for the rest of the test.
func SetMapMinBytes(t testing.TB, n uintptr) {
	old, oldTags := mapMinBytes, tagMapMinBytes
	mapMinBytes, tagMapMinBytes = n, int(n)
	t.Cleanup(func() { mapMinBytes, tagMapMinBytes = old, oldTags })
}

// SetRefModel routes every charge and merge through the reference model
// (ref.go) for the rest of the test. No simulation may be running.
func SetRefModel(t testing.TB) {
	refModel = true
	t.Cleanup(func() { refModel = false })
}

// CountFootprints counts, for the rest of the test, the ChargeLoop calls with
// an index stream and those of them the footprint rule charged.
func CountFootprints(t testing.TB) (calls, rule *atomic.Int64) {
	tally := new([2]atomic.Int64)
	footprintTally = tally
	t.Cleanup(func() { footprintTally = nil })
	return &tally[0], &tally[1]
}

// SameSetsAs skips address space until an array as long as like, allocated in
// sp next, falls line for line in the cache sets of like.
func SameSetsAs[T any](sp *Space, like *Array[T]) { sameSetsAs(sp, like) }

// LiveMappings is the number of mappings numa has made and not yet returned,
// over all spaces.
func LiveMappings() int64 { return liveMaps.Load() }

// AwaitNoMappings collects until every mapping is returned — the cleanups of
// abandoned spaces run some time after the collection that found them — and
// fails the test if some never are.
func AwaitNoMappings(t testing.TB) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); LiveMappings() != 0; {
		if time.Now().After(deadline) {
			t.Fatalf("%d mappings still live after repeated collections", LiveMappings())
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
}

// CountMappings counts, for the rest of the test, the mappings the kernel
// grants.
func CountMappings(t testing.TB) *atomic.Int64 {
	made := new(atomic.Int64)
	old := mapBytes
	mapBytes = func(n int) ([]byte, error) {
		mem, err := old(n)
		if err == nil {
			made.Add(1)
		}
		return mem, err
	}
	t.Cleanup(func() { mapBytes = old })
	return made
}

// DirectoryAudits is how many merges the package's TestMain has audited with
// checkDirectory so far (dir_test.go).
func DirectoryAudits() int64 { return directoryAudits.Load() }
